//! Pinned output digests. `pins.txt` holds one `key digest` line per
//! fabric configuration and per paper-regeneration product; regenerate
//! it with `--pins` only when a simulator change is meant to move
//! results, and review the diff.

use std::collections::BTreeMap;
use std::sync::OnceLock;

const PINS: &str = include_str!("pins.txt");

/// The pinned digest stored under `key`.
pub fn get(key: &str) -> Option<u64> {
    static MAP: OnceLock<BTreeMap<&'static str, u64>> = OnceLock::new();
    MAP.get_or_init(|| {
        PINS.lines()
            .filter_map(|line| {
                let (k, v) = line.split_once(' ')?;
                Some((k, u64::from_str_radix(v.trim(), 16).ok()?))
            })
            .collect()
    })
    .get(key)
    .copied()
}
