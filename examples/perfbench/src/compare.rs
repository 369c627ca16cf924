//! `--compare`: the verdict of a change against its parent, per workload
//! and end-to-end metric, from the samples in two sets of `results.json`.

use std::collections::BTreeMap;

use norush::common::json::{parse, Value};

use crate::stats::quartiles;
use crate::{MetricSpec, Spec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges samples `b` of a change against samples `a` of its parent.
///
/// * The parent's quartile spread is wider than `bound`: unresolved, unless
///   every run of the change beats every run of the parent.
/// * The change's median is worse by more than `bound`: worse.
/// * With at least ten pairs `(a[i], b[i])`, the change wins nine tenths of
///   them (ties count for neither side) and the medians differ by more than
///   the parent's quartile spread: better.
/// * Otherwise unchanged.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let [a1, ma, a3] = quartiles(a);
    let mb = quartiles(b)[1];
    let beats = |x: f64, y: f64| if higher_is_better { y > x } else { y < x };
    let rel = |x: f64| if ma != 0.0 { x / ma.abs() } else { 0.0 };
    let spread = a3 - a1;
    let worse_by = rel(if higher_is_better { ma - mb } else { mb - ma });
    let all_beat = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    if rel(spread) > bound && !all_beat {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(a[i], b[i])).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && (mb - ma).abs() > spread {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// Per workload, per metric: every sample of one side.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_side(files: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{f}: {e}"))?;
        let Some(Value::Object(workloads)) = doc.get("workloads") else {
            return Err(format!("{f}: no `workloads` object"));
        };
        for (w, body) in workloads {
            let Some(Value::Object(metrics)) = body.get("metrics") else {
                continue;
            };
            for (m, v) in metrics {
                let samples = v
                    .get("samples")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("{f}: {w}/{m} has no samples"))?;
                let dst = side
                    .entry(w.clone())
                    .or_default()
                    .entry(m.clone())
                    .or_default();
                for s in samples {
                    dst.push(
                        s.as_f64()
                            .ok_or_else(|| format!("{f}: {w}/{m}: bad sample"))?,
                    );
                }
            }
        }
    }
    Ok(side)
}

/// Prints the comparison table; returns whether any metric regressed.
pub fn run(spec: &Spec, a_files: &[String], b_files: &[String]) -> Result<bool, String> {
    let a = load_side(a_files)?;
    let b = load_side(b_files)?;
    println!(
        "{:<18} {:<12} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A q1/median/q3 (n)", "B q1/median/q3 (n)", "change"
    );
    let mut regressed = false;
    for (w, a_metrics) in &a {
        let Some(b_metrics) = b.get(w) else {
            println!("{w:<18} only in A");
            continue;
        };
        for MetricSpec {
            name,
            higher_is_better,
            bound,
            ..
        } in &spec.end_to_end
        {
            let (Some(sa), Some(sb)) = (a_metrics.get(name), b_metrics.get(name)) else {
                continue;
            };
            let v = verdict(sa, sb, *higher_is_better, bound.unwrap_or(0.0));
            regressed |= v == Verdict::Worse;
            let qa = quartiles(sa);
            let qb = quartiles(sb);
            let fmt = |q: [f64; 3], n: usize| format!("{:.4}/{:.4}/{:.4} ({n})", q[0], q[1], q[2]);
            let change = if qa[1] != 0.0 {
                format!("{:+.1}%", 100.0 * (qb[1] - qa[1]) / qa[1].abs())
            } else {
                "-".to_string()
            };
            println!(
                "{w:<18} {name:<12} {:>36} {:>36} {change:>8}  {}",
                fmt(qa, sa.len()),
                fmt(qb, sb.len()),
                v.name()
            );
        }
    }
    for w in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{w:<18} only in B");
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize, step: f64) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - n as f64 / 2.0))
            .collect()
    }

    #[test]
    fn a_clear_gain_with_ten_pairs_is_better() {
        let a = around(100.0, 10, 0.1);
        let b = around(110.0, 10, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.07), Verdict::Better);
        assert_eq!(verdict(&b, &a, false, 0.07), Verdict::Better);
    }

    #[test]
    fn a_gain_with_few_pairs_is_only_unchanged() {
        let a = around(100.0, 3, 0.1);
        let b = around(110.0, 3, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.07), Verdict::Unchanged);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let a = around(100.0, 10, 0.1);
        let b = around(90.0, 10, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.07), Verdict::Worse);
        assert_eq!(
            verdict(&a, &around(95.0, 10, 0.1), true, 0.07),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_verdict_unresolved() {
        let a = around(100.0, 10, 5.0);
        let b = around(99.0, 10, 5.0);
        assert_eq!(verdict(&a, &b, true, 0.07), Verdict::Unresolved);
        // Unless every run of the change beats every run of the parent.
        let b = around(200.0, 10, 1.0);
        assert_eq!(verdict(&a, &b, true, 0.07), Verdict::Better);
    }
}
