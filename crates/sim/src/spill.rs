//! Columnar on-disk spill for trace sets.
//!
//! A 10 000-cell sweep that keeps full traces holds hundreds of millions
//! of samples — far past what a memory-bounded grid wants resident. This
//! module trades RAM for a flat columnar layout on disk:
//!
//! - one directory per spilled set,
//! - per trace, two fixed-width little-endian `f64` column files
//!   (`col_<id>.times`, `col_<id>.values`) — no framing, no per-sample
//!   headers, so a column streams at raw sequential-write speed and its
//!   byte length is `8 × len` by construction,
//! - one `index.tsv` mapping trace names to column ids and lengths,
//!   written **last** so a complete index certifies a complete spill.
//!
//! [`TraceSet::spill_to`] writes a finished in-memory set, and
//! [`SpilledTraces`] reads **single columns** back without replaying or
//! even touching the rest of the directory — post-hoc analysis of one
//! channel out of thousands costs one index parse plus two column reads.
//!
//! # Examples
//!
//! ```
//! use gfsc_sim::{SpilledTraces, TraceSet};
//! use gfsc_units::Seconds;
//!
//! let dir = std::env::temp_dir().join("gfsc-spill-doc");
//! let mut set = TraceSet::new();
//! set.record("fan_rpm", Seconds::new(0.0), 2000.0);
//! set.record("fan_rpm", Seconds::new(30.0), 2500.0);
//! set.spill_to(&dir).unwrap();
//!
//! let spilled = SpilledTraces::open(&dir).unwrap();
//! let fan = spilled.column("fan_rpm").unwrap();
//! assert_eq!(fan.values(), &[2000.0, 2500.0]);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::{Trace, TraceError, TraceSet};
use gfsc_units::Seconds;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The index file name inside a spill directory.
const INDEX: &str = "index.tsv";
/// The index header magic + version.
const MAGIC: &str = "gfsc-spill\tv1";

fn times_file(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("col_{id}.times"))
}

fn values_file(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("col_{id}.values"))
}

impl TraceSet {
    /// Spills every trace to `dir` in the columnar layout (see the
    /// [module docs](crate::spill)), creating the directory as needed:
    /// each trace's two column files, then the index that seals the spill.
    /// The set itself is untouched; [`SpilledTraces::open`] reads the
    /// result back column by column.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failure and
    /// [`TraceError::Format`] for trace names the index cannot hold
    /// (embedded tabs or newlines). A spill that stops at a bad name or a
    /// failed column write has no index, so [`SpilledTraces::open`]
    /// refuses it.
    pub fn spill_to(&self, dir: impl Into<PathBuf>) -> Result<(), TraceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = format!("{MAGIC}\t{}\n", self.len());
        for (id, trace) in self.iter().enumerate() {
            let name = trace.name();
            if name.contains(['\t', '\n']) {
                return Err(TraceError::Format(format!(
                    "trace name {name:?} cannot be spilled: tabs and newlines delimit the index"
                )));
            }
            write_column(&times_file(&dir, id), trace.times())?;
            write_column(&values_file(&dir, id), trace.values())?;
            index.push_str(&format!("{id}\t{}\t{name}\n", trace.len()));
        }
        fs::write(dir.join(INDEX), index)?;
        Ok(())
    }
}

/// Writes one fixed-width little-endian `f64` column file and syncs it, so
/// the index written after the columns certifies data already on disk.
fn write_column(path: &Path, column: &[f64]) -> Result<(), TraceError> {
    let mut out = BufWriter::new(File::create(path)?);
    for x in column {
        out.write_all(&x.to_le_bytes())?;
    }
    out.into_inner().map_err(|e| TraceError::Io(e.into_error()))?.sync_data()?;
    Ok(())
}

/// One index entry: where a named trace's columns live and how long they
/// are.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    id: usize,
    len: usize,
    name: String,
}

/// A sealed spill directory, opened for selective reads.
///
/// Opening parses only the index; each [`SpilledTraces::column`] call
/// reads exactly the two column files of the requested trace — no replay,
/// no touching unrelated columns.
#[derive(Debug)]
pub struct SpilledTraces {
    dir: PathBuf,
    entries: Vec<IndexEntry>,
}

impl SpilledTraces {
    /// Opens a spill directory by parsing its index.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the index is unreadable (including
    /// aborted spills that never wrote one) and [`TraceError::Format`] if
    /// it is malformed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let dir = dir.into();
        let index = fs::read_to_string(dir.join(INDEX))?;
        let mut lines = index.lines();
        let header = lines.next().unwrap_or_default();
        let count = header
            .strip_prefix(MAGIC)
            .and_then(|rest| rest.strip_prefix('\t'))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| TraceError::Format(format!("bad index header {header:?}")))?;
        // The header is outside input: pre-sizing from its count would let
        // a corrupt header abort the process.
        let mut entries = Vec::new();
        for line in lines {
            let mut fields = line.splitn(3, '\t');
            let entry = (|| {
                let id = fields.next()?.parse().ok()?;
                let len = fields.next()?.parse().ok()?;
                let name = fields.next()?.to_owned();
                Some(IndexEntry { id, len, name })
            })()
            .ok_or_else(|| TraceError::Format(format!("bad index entry {line:?}")))?;
            entries.push(entry);
        }
        if entries.len() != count {
            return Err(TraceError::Format(format!(
                "index promises {count} columns, lists {}",
                entries.len()
            )));
        }
        Ok(Self { dir, entries })
    }

    /// Number of spilled traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the spill holds no traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The spilled trace names, in spill order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Loads one trace by reading only its two column files.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTrace`] for unknown names,
    /// [`TraceError::Io`] on read failure, and [`TraceError::Format`] if
    /// a column's byte length disagrees with the index or its data
    /// violates the trace invariants (time order, NaN-freedom).
    pub fn column(&self, name: &str) -> Result<Trace, TraceError> {
        let entry = self.entry(name)?;
        let times = read_column(&times_file(&self.dir, entry.id), entry.len)?;
        let values = read_column(&values_file(&self.dir, entry.id), entry.len)?;
        if times.windows(2).any(|w| w[1] < w[0]) || times.iter().any(|t| t.is_nan()) {
            return Err(TraceError::Format(format!("column `{name}` times are not ordered")));
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(TraceError::Format(format!("column `{name}` holds NaN values")));
        }
        Ok(Trace::from_parts(entry.name.clone(), times, values))
    }

    /// Loads the whole spill back into a [`TraceSet`] (the round-trip
    /// inverse of [`TraceSet::spill_to`], mostly for tests and small
    /// sets — selective [`SpilledTraces::column`] reads are the point of
    /// the format).
    ///
    /// # Errors
    ///
    /// Propagates the first [`SpilledTraces::column`] failure.
    pub fn load_all(&self) -> Result<TraceSet, TraceError> {
        let mut set = TraceSet::new();
        for entry in &self.entries {
            let trace = self.column(&entry.name)?;
            let channel = set.channel_with_capacity(&entry.name, trace.len());
            for (t, v) in trace.iter() {
                set.record_by_id(channel, Seconds::new(t), v);
            }
        }
        Ok(set)
    }

    fn entry(&self, name: &str) -> Result<&IndexEntry, TraceError> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| TraceError::UnknownTrace(name.to_owned()))
    }
}

/// Reads one fixed-width `f64` column file, validating its byte length
/// against the index (a length whose byte count overflows never matches).
fn read_column(path: &Path, len: usize) -> Result<Vec<f64>, TraceError> {
    let bytes = fs::read(path)?;
    if len.checked_mul(8) != Some(bytes.len()) {
        return Err(TraceError::Format(format!(
            "{}: expected {len} samples of 8 bytes, found {} bytes",
            path.display(),
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        // `chunks_exact(8)` only yields 8-byte chunks, so the conversion
        // cannot fail; a zeroed fallback keeps the path panic-free.
        .map(|chunk| f64::from_le_bytes(chunk.try_into().unwrap_or_default()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tempdir that cleans up after itself (no tempfile dependency).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("gfsc-spill-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_set() -> TraceSet {
        let mut set = TraceSet::new();
        for k in 0..500 {
            let t = Seconds::new(f64::from(k) * 0.5);
            set.record("t_junction_c", t, 55.0 + f64::from(k % 17) * 0.25);
            if k % 30 == 0 {
                set.record("fan_rpm", t, 1500.0 + f64::from(k) * 10.0);
            }
        }
        set
    }

    #[test]
    fn spill_round_trips_bitwise() {
        let tmp = TempDir::new("round-trip");
        let set = sample_set();
        set.spill_to(&tmp.0).unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        assert_eq!(spilled.len(), 2);
        let names: Vec<&str> = spilled.names().collect();
        assert_eq!(names, ["t_junction_c", "fan_rpm"]);
        for original in set.iter() {
            let loaded = spilled.column(original.name()).unwrap();
            assert_eq!(loaded.name(), original.name());
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(loaded.times()), bits(original.times()));
            assert_eq!(bits(loaded.values()), bits(original.values()));
        }
        let reloaded = spilled.load_all().unwrap();
        assert_eq!(reloaded.len(), set.len());
    }

    #[test]
    fn column_reads_are_selective() {
        let tmp = TempDir::new("selective");
        sample_set().spill_to(&tmp.0).unwrap();
        // Corrupt one column; the *other* column must still read cleanly,
        // proving reads touch only the requested files.
        fs::write(tmp.0.join("col_0.values"), b"short").unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        assert!(spilled.column("t_junction_c").is_err());
        let fan = spilled.column("fan_rpm").unwrap();
        assert_eq!(fan.len(), 17);
        assert_eq!(fan.values()[0], 1500.0);
    }

    #[test]
    fn unspillable_names_abort_without_an_index() {
        let tmp = TempDir::new("bad-name");
        let mut set = sample_set();
        set.record("tab\tseparated", Seconds::new(0.0), 1.0);
        let err = set.spill_to(&tmp.0).unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
        // The columns ahead of the bad name are on disk, but with no index
        // the aborted spill never opens.
        assert!(tmp.0.join("col_0.times").exists());
        assert!(SpilledTraces::open(&tmp.0).is_err());
    }

    #[test]
    fn empty_set_spills_and_opens() {
        let tmp = TempDir::new("empty");
        TraceSet::new().spill_to(&tmp.0).unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        assert!(spilled.is_empty());
        assert!(spilled.column("anything").is_err());
    }

    #[test]
    fn load_all_surfaces_truncated_column_as_format_error() {
        let tmp = TempDir::new("load-all-truncated");
        sample_set().spill_to(&tmp.0).unwrap();
        // A column file cut short mid-write (crash, full disk) must
        // surface as a clean Format error from the bulk loader, not a
        // panic or a short read.
        fs::write(tmp.0.join("col_0.values"), b"short").unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        let err = spilled.load_all().unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
        assert!(err.to_string().contains("col_0.values"), "names the bad file: {err}");
    }

    #[test]
    fn load_all_surfaces_index_length_mismatch() {
        let tmp = TempDir::new("load-all-mismatch");
        sample_set().spill_to(&tmp.0).unwrap();
        // Rewrite the index so one entry claims a different sample
        // count than its (intact) column files hold.
        let index = fs::read_to_string(tmp.0.join(INDEX)).unwrap();
        let doctored: String = index
            .lines()
            .map(|line| match line.strip_prefix("0\t500\t") {
                Some(rest) => format!("0\t499\t{rest}\n"),
                None => format!("{line}\n"),
            })
            .collect();
        assert_ne!(doctored, index, "the doctored entry must exist");
        fs::write(tmp.0.join(INDEX), doctored).unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        assert!(matches!(spilled.column("t_junction_c").unwrap_err(), TraceError::Format(_)));
        let err = spilled.load_all().unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
        // The untouched column is still selectively readable.
        assert_eq!(spilled.column("fan_rpm").unwrap().len(), 17);
    }

    #[test]
    fn malformed_indexes_are_rejected() {
        let tmp = TempDir::new("malformed");
        fs::create_dir_all(&tmp.0).unwrap();
        for bad in ["", "not-a-spill\n", "gfsc-spill\tv1\t2\n0\t1\ta\n", "gfsc-spill\tv1\tx\n"] {
            fs::write(tmp.0.join(INDEX), bad).unwrap();
            let err = SpilledTraces::open(&tmp.0).unwrap_err();
            assert!(matches!(err, TraceError::Format(_)), "{bad:?} gave {err}");
        }
    }

    #[test]
    fn oversized_index_counts_are_format_errors() {
        let tmp = TempDir::new("oversized");
        fs::create_dir_all(&tmp.0).unwrap();
        // A header promising `usize::MAX` columns over one entry.
        fs::write(tmp.0.join(INDEX), format!("{MAGIC}\t{}\n0\t1\ta\n", usize::MAX)).unwrap();
        let err = SpilledTraces::open(&tmp.0).unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
        // An entry whose byte count (8 × len) overflows `usize`, over empty
        // column files that a wrapped product would match.
        let len = usize::MAX / 8 + 1;
        fs::write(tmp.0.join(INDEX), format!("{MAGIC}\t1\n0\t{len}\ta\n")).unwrap();
        fs::write(times_file(&tmp.0, 0), b"").unwrap();
        fs::write(values_file(&tmp.0, 0), b"").unwrap();
        let spilled = SpilledTraces::open(&tmp.0).unwrap();
        let err = spilled.column("a").unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
        let err = spilled.load_all().unwrap_err();
        assert!(matches!(err, TraceError::Format(_)), "got {err}");
    }
}
