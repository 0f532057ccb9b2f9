//! The §4.1 precompute → store → load workflow every workload starts with:
//! generate the breadth-first tables, write them as a v5 store under the
//! benchmark's scratch directory, and map them back.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use revsynth_bfs::SearchTables;
use revsynth_circuit::GateLib;

use crate::procfs;
use crate::trace::{SpanId, Tracer};

/// Equivalence classes of optimal size ≤ k on 4 wires (paper Table 4).
pub fn expected_classes(k: usize) -> Option<usize> {
    match k {
        6 => Some(1_591_670),
        7 => Some(21_058_245),
        _ => None,
    }
}

/// Upper bound on a v5 store's size per class (measured: 43.3 bytes at
/// k = 7, 41.9 at k = 6).
const STORE_BYTES_PER_CLASS: u64 = 48;

/// A directory of the benchmark's own that is removed when dropped — on
/// return, on error and while unwinding from a panic. (`run.py` also
/// removes leftovers after the process exits, which covers kills.)
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `parent/scratch-<pid>-<tag>`.
    pub fn new(parent: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = parent.join(format!("scratch-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Tables built by [`build`] and what each step cost.
pub struct Built {
    pub tables: SearchTables,
    pub generate_s: f64,
    pub save_s: f64,
    pub load_ms: f64,
    pub store_mb: f64,
    pub classes: usize,
}

/// Generates the n = 4 tables to depth `k` on `threads` threads, saves
/// them as a v5 store in `scratch` and loads them back (zero-copy mapped).
/// Refuses to start when the disk cannot hold the store.
pub fn build(
    k: usize,
    threads: usize,
    scratch: &Scratch,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Built, String> {
    let classes = expected_classes(k).ok_or_else(|| format!("no class count known for k = {k}"))?;
    let need = classes as u64 * STORE_BYTES_PER_CLASS;
    match procfs::available_bytes(scratch.path()) {
        Some(free) if free < need => {
            return Err(format!(
                "{} has {} MB free; the k = {k} store needs {} MB",
                scratch.path().display(),
                free >> 20,
                need >> 20
            ))
        }
        Some(_) => {}
        None => return Err("cannot determine free disk space (df failed)".to_string()),
    }
    let path = scratch.path().join(format!("k{k}.rvtab"));

    let span = tracer.open("bfs.generate", parent, 0);
    let t = Instant::now();
    let generated = SearchTables::generate_parallel(GateLib::nct(4), k, threads);
    let generate_s = t.elapsed().as_secs_f64();
    tracer.close(span);

    let span = tracer.open("bfs.save_v5", parent, 0);
    let t = Instant::now();
    generated
        .save_v5(&path)
        .map_err(|e| format!("save_v5: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    tracer.close(span);
    drop(generated);
    let store_mb =
        std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / (1 << 20) as f64;

    let span = tracer.open("bfs.load", parent, 0);
    let t = Instant::now();
    let tables = SearchTables::load(&path).map_err(|e| format!("load: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);

    let span = tracer.open("setup.prefault", parent, 0);
    prefault(&tables);
    tracer.close(span);

    let got = tables.num_representatives();
    if got != classes {
        return Err(format!(
            "k = {k} tables hold {got} classes, expected {classes}"
        ));
    }
    Ok(Built {
        tables,
        generate_s,
        save_s,
        load_ms,
        store_mb,
        classes: got,
    })
}

/// Touches every page of the mapped sections, so the timed phase measures
/// the engine rather than first-touch page faults in whichever query
/// happens to run first.
fn prefault(tables: &SearchTables) {
    const STRIDE: usize = 512; // u64 words per 4 KiB page
    let mut sum = 0u64;
    for level in tables.levels().iter() {
        sum ^= level.iter().step_by(STRIDE).fold(0, |a, p| a ^ p.packed());
    }
    let (keys, values) = tables.table().slot_arrays();
    sum ^= keys.iter().step_by(STRIDE).fold(0, |a, k| a ^ k);
    sum ^= values
        .iter()
        .step_by(STRIDE * 8)
        .fold(0, |a, &v| a ^ u64::from(v));
    let (keys, masks) = tables.invariants().slot_arrays();
    sum ^= keys.iter().step_by(STRIDE).fold(0, |a, k| a ^ k);
    sum ^= masks
        .iter()
        .step_by(STRIDE * 2)
        .fold(0, |a, &m| a ^ u64::from(m));
    black_box(sum);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_on_panic() {
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = Scratch::new(&parent, "drop-test").unwrap();
        let dir = scratch.path().to_path_buf();
        std::fs::write(dir.join("f"), b"x").unwrap();
        drop(scratch);
        assert!(!dir.exists());

        let dir = std::panic::catch_unwind(|| {
            let scratch = Scratch::new(&parent, "panic-test").unwrap();
            std::fs::write(scratch.path().join("f"), b"x").unwrap();
            let dir = scratch.path().to_path_buf();
            if dir.exists() {
                panic!("{}", dir.display());
            }
            dir
        })
        .unwrap_err();
        let dir = dir.downcast_ref::<String>().unwrap();
        assert!(!Path::new(dir).exists());
    }
}
