//! The benchmark's own correctness checks. Each returns `Err` with one
//! line naming what disagreed; the runner prints `"correct": false` when
//! any check fails.

use ltsp_memsim::CycleCounters;

use crate::stats::Digest;

/// Output digests of each workload at [`crate::DEFAULT_SEED`]: simulated
/// statistics and compiled output. A change meant only to make the
/// program faster must leave these unchanged.
pub fn expected_digest(workload: &str) -> Option<u64> {
    match workload {
        "suite_sim" => Some(0x208da4efefadd331),
        "compile_cold" => Some(0x0fdfce28698ad64f),
        "serve_mix" => Some(0x73d4521edbfa41ac),
        "adaptive_refine" => Some(0x7f91f3b3fff08252),
        _ => None,
    }
}

pub fn digest_matches(actual: u64, expected: Option<u64>) -> Result<(), String> {
    match expected {
        Some(e) if e == actual => Ok(()),
        Some(e) => Err(format!(
            "output digest {actual:016x} differs from the pinned {e:016x}"
        )),
        None => Err("no pinned digest for this workload".to_string()),
    }
}

/// Every pass over the same inputs must compute the same outputs, traced
/// or not.
pub fn passes_agree(digests: &[u64]) -> Result<(), String> {
    match digests.iter().position(|d| *d != digests[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "pass {i} output digest {:016x} differs from pass 0's {:016x}",
            digests[i], digests[0]
        )),
    }
}

/// The cycle buckets must partition the total.
pub fn counters_consistent(what: &str, c: &CycleCounters) -> Result<(), String> {
    if c.is_consistent() {
        Ok(())
    } else {
        Err(format!(
            "{what}: cycle buckets sum to {} but total is {}",
            c.unstalled + c.stall_cycles(),
            c.total
        ))
    }
}

/// The outside-timed replay must simulate exactly what the library's own
/// suite runner simulates.
pub fn counters_match(
    labels: &[String],
    measured: &[CycleCounters],
    reference: &[CycleCounters],
) -> Result<(), String> {
    if measured.len() != reference.len() {
        return Err(format!(
            "the benchmark ran {} loops, run_suite {}",
            measured.len(),
            reference.len()
        ));
    }
    match measured.iter().zip(reference).position(|(m, r)| m != r) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{}: measured counters {:?} differ from run_suite's {:?}",
            labels[i], measured[i], reference[i]
        )),
    }
}

/// A response line split into `(status, cache, body)`, with any trailing
/// `timings` object dropped. `None` when the line is not a response
/// envelope.
pub fn split_response(line: &str) -> Option<(&str, &str, &str)> {
    let line = line.trim_end();
    let rest = line.strip_prefix("{\"id\":\"")?;
    let rest = &rest[rest.find("\",\"status\":\"")? + 12..];
    let (status, rest) = rest.split_once("\",\"cache\":\"")?;
    let (cache, rest) = rest.split_once('"')?;
    let body = rest.strip_suffix('}')?;
    // Body strings are JSON-escaped, so an unescaped `,"timings":{` can
    // only be the envelope's own trailing object.
    let body = body.rfind(",\"timings\":{").map_or(body, |i| &body[..i]);
    Some((status, cache, body))
}

/// Statuses that mean the daemon did not serve the request.
fn is_failure_status(status: &str) -> bool {
    matches!(status, "error" | "overloaded" | "draining")
}

/// What a response says, as a digest of its status and body: equal for a
/// served answer and the engine's in-process answer to the same request,
/// whatever their id, cache tag and timings. `Err` when the response is
/// malformed or the daemon refused the request.
pub fn answer_of(line: &str) -> Result<u64, String> {
    let (status, _, body) =
        split_response(line).ok_or_else(|| format!("malformed response: {}", line.trim_end()))?;
    if is_failure_status(status) {
        return Err(format!("status {status}: {}", line.trim_end()));
    }
    let mut d = Digest::default();
    d.write_str(status);
    d.write_str(body);
    Ok(d.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_pinned_digest_fails() {
        assert!(digest_matches(0x1234, Some(0x1234)).is_ok());
        assert!(digest_matches(0x1234, Some(0x1234 ^ 1)).is_err());
        assert!(digest_matches(0x1234, None).is_err());
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in ["suite_sim", "compile_cold", "serve_mix", "adaptive_refine"] {
            assert!(expected_digest(w).is_some(), "{w}");
        }
    }

    #[test]
    fn passes_that_disagree_fail() {
        assert!(passes_agree(&[7, 7, 7]).is_ok());
        assert!(passes_agree(&[7, 7, 8]).is_err());
    }

    #[test]
    fn inconsistent_counters_fail() {
        let mut c = CycleCounters {
            total: 100,
            unstalled: 60,
            be_exe_bubble: 40,
            ..CycleCounters::default()
        };
        assert!(counters_consistent("x", &c).is_ok());
        c.be_flush_bubble = 1;
        assert!(counters_consistent("x", &c).is_err());
    }

    #[test]
    fn counters_differing_from_the_reference_fail() {
        let labels = vec!["a".to_string()];
        let c = CycleCounters {
            total: 5,
            unstalled: 5,
            ..CycleCounters::default()
        };
        let mut d = c;
        assert!(counters_match(&labels, &[c], &[d]).is_ok());
        d.loads = 1;
        assert!(counters_match(&labels, &[c], &[d]).is_err());
        assert!(counters_match(&labels, &[c], &[]).is_err());
    }

    #[test]
    fn answers_compare_without_id_cache_and_timings() {
        let local = r#"{"id":"check","status":"ok","cache":"miss","op":"compile","text":"a,\"timings\":{"}"#;
        let served = r#"{"id":"p1c0r9","status":"ok","cache":"hit","op":"compile","text":"a,\"timings\":{","timings":{"parse_us":3}}"#;
        assert_eq!(
            split_response(served),
            Some(("ok", "hit", r#","op":"compile","text":"a,\"timings\":{""#))
        );
        assert_eq!(answer_of(served), answer_of(local));
        assert!(answer_of(local).is_ok());
    }

    #[test]
    fn a_served_body_that_differs_from_the_local_answer_fails() {
        let local =
            answer_of(r#"{"id":"check","status":"ok","cache":"miss","op":"compile","ii":3}"#);
        let body = r#"{"id":"r","status":"ok","cache":"hit","op":"compile","ii":4}"#;
        let status = r#"{"id":"r","status":"rejected","cache":"hit","op":"compile","ii":3}"#;
        let refused = r#"{"id":"r","status":"overloaded","cache":"-","error":"full"}"#;
        assert_ne!(answer_of(body), local);
        assert_ne!(answer_of(status), local);
        assert!(answer_of(refused).is_err());
        assert!(answer_of("garbage").is_err());
    }
}
