//! Regenerates tables and figures of the paper's evaluation:
//! `figure <id>... [--jobs N] [--resume]`. Usage errors exit 2; a failed
//! sweep exits 1.

use row_bench::{parse_checkpoint, parse_sweep_cli, run_figure};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = std::env::var("NORUSH_CKPT_DIR").ok();
    let every = std::env::var("NORUSH_CKPT_EVERY").ok();
    let cli = parse_sweep_cli(&args).and_then(|mut cli| {
        cli.checkpoint = parse_checkpoint(dir.as_deref(), every.as_deref())?;
        Ok(cli)
    });
    let cli = cli.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for fig in &cli.figures {
        if let Err(e) = run_figure(fig, &cli) {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}
