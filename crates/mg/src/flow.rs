//! Flow equivalence: comparing the streams of values stored in each register
//! between a synchronous execution and its desynchronized counterpart.
//!
//! The correctness criterion of the paper (after Guernic et al.,
//! "Polychrony for system design") is *flow equivalence*: two circuits are
//! flow equivalent when, for every register, the sequence of values latched
//! into that register is identical, even though the absolute times at which
//! the values are latched may differ. This module provides the trace
//! containers and the comparison report used by the verification hooks of
//! the desynchronization flow.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The per-register streams of latched values of one execution.
///
/// Values are stored as `u64` words — the simulator packs the (multi-bit)
/// register contents or a hash of them; flow equivalence only needs
/// equality, not interpretation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlowTrace {
    streams: BTreeMap<String, Vec<u64>>,
}

impl FlowTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a value to the stream of `register`.
    pub fn push(&mut self, register: impl Into<String>, value: u64) {
        self.streams.entry(register.into()).or_default().push(value);
    }

    /// Appends a whole batch of values to the stream of `register` with a
    /// single map lookup. The capture-heavy simulation harnesses group their
    /// captures per register first and land here once per register, instead
    /// of paying one string allocation and tree lookup per captured value.
    pub fn extend_stream(&mut self, register: impl Into<String>, values: Vec<u64>) {
        let slot = self.streams.entry(register.into()).or_default();
        if slot.is_empty() {
            *slot = values;
        } else {
            slot.extend(values);
        }
    }

    /// The stream recorded for `register`, if any.
    pub fn stream(&self, register: &str) -> Option<&[u64]> {
        self.streams.get(register).map(|v| v.as_slice())
    }

    /// Removes and returns the stream recorded for `register`, if any, so a
    /// caller re-keying streams into another trace can move them rather
    /// than copy them.
    pub fn take_stream(&mut self, register: &str) -> Option<Vec<u64>> {
        self.streams.remove(register)
    }

    /// Registers with at least one recorded value, sorted by name.
    pub fn registers(&self) -> Vec<&str> {
        self.streams.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registers with a recorded stream.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no values have been recorded.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Total number of recorded values across all registers.
    pub fn total_values(&self) -> usize {
        self.streams.values().map(Vec::len).sum()
    }

    /// Truncates every stream to at most `len` values.
    ///
    /// Useful when comparing executions of different lengths: flow
    /// equivalence is then checked on the common prefix.
    pub fn truncate(&mut self, len: usize) {
        for v in self.streams.values_mut() {
            v.truncate(len);
        }
    }

    /// The length of the shortest stream (0 if the trace is empty).
    pub fn min_stream_len(&self) -> usize {
        self.streams.values().map(Vec::len).min().unwrap_or(0)
    }
}

impl FromIterator<(String, Vec<u64>)> for FlowTrace {
    fn from_iter<I: IntoIterator<Item = (String, Vec<u64>)>>(iter: I) -> Self {
        Self {
            streams: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Vec<u64>)> for FlowTrace {
    fn extend<I: IntoIterator<Item = (String, Vec<u64>)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.streams.entry(k).or_default().extend(v);
        }
    }
}

/// A single disagreement between two flow traces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowMismatch {
    /// Register whose streams differ.
    pub register: String,
    /// Index of the first differing value (or of the end of the shorter
    /// stream when one is a strict prefix of the other).
    pub position: usize,
    /// Value in the reference trace at that position, if present.
    pub reference: Option<u64>,
    /// Value in the checked trace at that position, if present.
    pub checked: Option<u64>,
}

impl fmt::Display for FlowMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "register `{}` differs at position {}: reference={:?}, checked={:?}",
            self.register, self.position, self.reference, self.checked
        )
    }
}

/// The result of a flow-equivalence comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEquivalence {
    /// All mismatches found (empty when the traces are flow equivalent).
    pub mismatches: Vec<FlowMismatch>,
    /// Registers present in one trace but absent from the other.
    pub missing_registers: Vec<String>,
    /// Number of values compared in total.
    pub compared_values: usize,
}

impl FlowEquivalence {
    /// Compares `checked` against `reference` on their common stream prefix
    /// per register.
    ///
    /// Registers that exist in only one of the traces are reported in
    /// [`FlowEquivalence::missing_registers`] and count as a failure unless
    /// their streams would have been empty.
    pub fn compare(reference: &FlowTrace, checked: &FlowTrace) -> Self {
        Self::compare_prefix(reference, checked, usize::MAX)
    }

    /// Like [`FlowEquivalence::compare`] but only the first `limit` values
    /// of each stream are considered.
    pub fn compare_prefix(reference: &FlowTrace, checked: &FlowTrace, limit: usize) -> Self {
        let mut mismatches = Vec::new();
        let mut missing = Vec::new();
        let mut compared = 0usize;
        // Both traces are sorted by register name: walk them side by side
        // instead of looking every register up in the other trace.
        let mut checked_streams = checked.streams.iter().peekable();
        for (name, ref_stream) in &reference.streams {
            while let Some((chk_name, chk_stream)) =
                checked_streams.next_if(|(chk_name, _)| *chk_name < name)
            {
                if !chk_stream.is_empty() {
                    missing.push(chk_name.clone());
                }
            }
            let Some((_, chk_stream)) = checked_streams.next_if(|(chk_name, _)| *chk_name == name)
            else {
                if !ref_stream.is_empty() {
                    missing.push(name.clone());
                }
                continue;
            };
            let n = ref_stream.len().min(chk_stream.len()).min(limit);
            compared += n;
            for i in 0..n {
                if ref_stream[i] != chk_stream[i] {
                    mismatches.push(FlowMismatch {
                        register: name.clone(),
                        position: i,
                        reference: Some(ref_stream[i]),
                        checked: Some(chk_stream[i]),
                    });
                    break; // first mismatch per register is enough
                }
            }
        }
        for (chk_name, chk_stream) in checked_streams {
            if !chk_stream.is_empty() {
                missing.push(chk_name.clone());
            }
        }
        missing.sort();
        missing.dedup();
        Self {
            mismatches,
            missing_registers: missing,
            compared_values: compared,
        }
    }

    /// Whether the two executions are flow equivalent (no mismatches and no
    /// missing registers).
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty() && self.missing_registers.is_empty()
    }
}

impl fmt::Display for FlowEquivalence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_equivalent() {
            write!(
                f,
                "flow equivalent ({} values compared)",
                self.compared_values
            )
        } else {
            writeln!(
                f,
                "NOT flow equivalent: {} mismatching registers, {} missing registers",
                self.mismatches.len(),
                self.missing_registers.len()
            )?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            for r in &self.missing_registers {
                writeln!(f, "  register `{r}` missing from one trace")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(pairs: &[(&str, &[u64])]) -> FlowTrace {
        let mut t = FlowTrace::new();
        for (name, values) in pairs {
            for &v in *values {
                t.push(*name, v);
            }
        }
        t
    }

    #[test]
    fn identical_traces_are_equivalent() {
        let a = trace(&[("r0", &[1, 2, 3]), ("r1", &[9, 9])]);
        let b = trace(&[("r0", &[1, 2, 3]), ("r1", &[9, 9])]);
        let cmp = FlowEquivalence::compare(&a, &b);
        assert!(cmp.is_equivalent());
        assert_eq!(cmp.compared_values, 5);
        assert!(cmp.to_string().contains("flow equivalent"));
    }

    #[test]
    fn prefix_difference_in_length_is_tolerated() {
        // The asynchronous run may have latched fewer values; comparison is
        // on the common prefix.
        let a = trace(&[("r0", &[1, 2, 3, 4])]);
        let b = trace(&[("r0", &[1, 2])]);
        assert!(FlowEquivalence::compare(&a, &b).is_equivalent());
    }

    #[test]
    fn value_mismatch_detected() {
        let a = trace(&[("r0", &[1, 2, 3])]);
        let b = trace(&[("r0", &[1, 7, 3])]);
        let cmp = FlowEquivalence::compare(&a, &b);
        assert!(!cmp.is_equivalent());
        assert_eq!(cmp.mismatches.len(), 1);
        assert_eq!(cmp.mismatches[0].position, 1);
        assert_eq!(cmp.mismatches[0].reference, Some(2));
        assert_eq!(cmp.mismatches[0].checked, Some(7));
        assert!(cmp.to_string().contains("NOT flow equivalent"));
    }

    #[test]
    fn missing_register_detected() {
        let a = trace(&[("r0", &[1]), ("r1", &[2])]);
        let b = trace(&[("r0", &[1])]);
        let cmp = FlowEquivalence::compare(&a, &b);
        assert!(!cmp.is_equivalent());
        assert_eq!(cmp.missing_registers, vec!["r1".to_string()]);
        // Symmetric case.
        let cmp2 = FlowEquivalence::compare(&b, &a);
        assert_eq!(cmp2.missing_registers, vec!["r1".to_string()]);
        // Registers missing on both sides, interleaved by name; an empty
        // stream is never missing.
        let mut c = trace(&[("a", &[1]), ("c", &[3]), ("f", &[6])]);
        c.extend_stream("e", Vec::new());
        let mut d = trace(&[("b", &[2]), ("c", &[4]), ("g", &[7])]);
        d.extend_stream("d", Vec::new());
        let cmp3 = FlowEquivalence::compare(&c, &d);
        assert_eq!(cmp3.missing_registers, ["a", "b", "f", "g"]);
        assert_eq!(cmp3.mismatches.len(), 1);
        assert_eq!(cmp3.mismatches[0].register, "c");
        assert_eq!(cmp3.compared_values, 1);
    }

    #[test]
    fn prefix_limit_is_respected() {
        let a = trace(&[("r0", &[1, 2, 3])]);
        let b = trace(&[("r0", &[1, 2, 99])]);
        assert!(FlowEquivalence::compare_prefix(&a, &b, 2).is_equivalent());
        assert!(!FlowEquivalence::compare_prefix(&a, &b, 3).is_equivalent());
    }

    #[test]
    fn trace_utilities() {
        let mut t = trace(&[("a", &[1, 2, 3]), ("b", &[4])]);
        assert_eq!(t.registers(), vec!["a", "b"]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_values(), 4);
        assert_eq!(t.min_stream_len(), 1);
        assert_eq!(t.stream("a"), Some(&[1, 2, 3][..]));
        assert_eq!(t.stream("zz"), None);
        t.truncate(1);
        assert_eq!(t.total_values(), 2);
        assert!(!t.is_empty());
        assert!(FlowTrace::new().is_empty());
    }

    #[test]
    fn from_iterator_and_extend() {
        let t: FlowTrace = vec![("x".to_string(), vec![5, 6])].into_iter().collect();
        assert_eq!(t.stream("x"), Some(&[5, 6][..]));
        let mut t2 = FlowTrace::new();
        t2.extend(vec![("x".to_string(), vec![1])]);
        t2.extend(vec![("x".to_string(), vec![2])]);
        assert_eq!(t2.stream("x"), Some(&[1, 2][..]));
    }
}
