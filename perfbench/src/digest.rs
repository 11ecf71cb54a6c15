//! Digests of the benchmark's outputs and the table of expected ones.
//!
//! `digests.txt` holds one tab-separated line per checked output:
//! `workload  seed  item  digest`. A run whose seed appears in the table
//! for its workload must reproduce every item of that seed exactly; a
//! run on a seed the table does not cover keeps only the checks that need
//! no stored answer.

const TABLE: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The verdict on one output against the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Mismatch,
    /// The table has no entries for this workload and seed.
    Uncovered,
}

/// Looks `item` up for `workload` at `seed` and compares it with `actual`.
pub fn verdict(workload: &str, seed: u64, item: &str, actual: &str) -> Verdict {
    verdict_in(TABLE, workload, seed, item, actual)
}

fn verdict_in(table: &str, workload: &str, seed: u64, item: &str, actual: &str) -> Verdict {
    let seed = seed.to_string();
    let mut covered = false;
    for line in table.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        if let [w, s, i, d] = fields[..] {
            if w == workload && s == seed {
                covered = true;
                if i == item {
                    return if d == actual {
                        Verdict::Match
                    } else {
                        Verdict::Mismatch
                    };
                }
            }
        }
    }
    if covered {
        Verdict::Mismatch
    } else {
        Verdict::Uncovered
    }
}

/// Whether the table covers `workload` at `seed`.
pub fn covered(workload: &str, seed: u64) -> bool {
    let seed = seed.to_string();
    TABLE.lines().any(|line| {
        let mut fields = line.split('\t');
        fields.next() == Some(workload) && fields.next() == Some(seed.as_str())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn verdicts() {
        let table = "w\t1\tx\taa\nw\t1\ty\tbb\nv\t2\tx\tcc\n";
        assert_eq!(verdict_in(table, "w", 1, "x", "aa"), Verdict::Match);
        assert_eq!(verdict_in(table, "w", 1, "y", "aa"), Verdict::Mismatch);
        assert_eq!(verdict_in(table, "w", 1, "z", "aa"), Verdict::Mismatch);
        assert_eq!(verdict_in(table, "w", 2, "x", "cc"), Verdict::Uncovered);
        assert_eq!(verdict_in(table, "v", 2, "x", "cc"), Verdict::Match);
    }
}
