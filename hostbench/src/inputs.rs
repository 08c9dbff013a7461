//! Seeded input generation. Inputs are written as GFX1 files before any
//! timing starts; the timed code only ever opens those files.

use graffix::graph::serialize;
use graffix::graph::{GraphKind, GraphSpec};
use std::io;
use std::path::{Path, PathBuf};

/// One generated input graph.
pub struct Input {
    pub name: &'static str,
    pub kind: GraphKind,
    pub nodes: usize,
}

/// The generator seed of input `index` under workload seed `seed`: distinct
/// per input, identical for identical seeds.
fn input_seed(seed: u64, index: usize) -> u64 {
    let mut x = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

/// Generates `inputs` into `dir` and returns their paths, in order.
pub fn generate(dir: &Path, seed: u64, inputs: &[Input]) -> io::Result<Vec<PathBuf>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let g = GraphSpec::new(input.kind, input.nodes, input_seed(seed, i)).generate();
            let path = dir.join(format!("{}.gfx", input.name));
            serialize::save_binary(&g, &path)?;
            Ok(path)
        })
        .collect()
}

/// Size of a file in bytes (0 when it cannot be read).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
