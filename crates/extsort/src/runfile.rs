//! The spilled-run file format: self-describing, little-endian, typed
//! errors on every malformed input.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "MCSRUN1\0"
//! 8       2     version (currently 1), u16 LE
//! 10      2     key_words ⌈W/64⌉ ≥ 1, u16 LE
//! 12      4     entry_bytes = key_words·8 + 4, u32 LE
//! 16      8     count (entries), u64 LE
//! 24      …     count entries: key_words × u64 LE (most significant
//!               word first), then the u32 LE oid
//! ```
//!
//! Entries are written in sorted order. The header is
//! validated on open — wrong magic, unsupported version, inconsistent
//! shape, or a count that disagrees with the file length each return a
//! distinct [`RunFileError`] instead of panicking; a file that shrinks
//! between open and read surfaces as [`RunFileError::Truncated`] from
//! [`RunFileReader::read_entry`].

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// First 8 bytes of every run file.
pub const RUN_MAGIC: [u8; 8] = *b"MCSRUN1\0";

/// Format version this build writes and accepts.
pub const RUN_VERSION: u16 = 1;

/// Fixed header size in bytes.
const HEADER_BYTES: u64 = 24;

/// Why a run file could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFileError {
    /// Underlying I/O failure (`io::Error` is not `Eq`, so the message
    /// is carried as text).
    Io(String),
    /// The file does not start with [`RUN_MAGIC`].
    BadMagic([u8; 8]),
    /// The version field names a format this build does not speak.
    BadVersion(u16),
    /// `key_words` / `entry_bytes` are zero or mutually inconsistent.
    BadShape {
        /// Declared key words per entry.
        key_words: u16,
        /// Declared bytes per entry.
        entry_bytes: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A fault-injection point fired (chaos testing only).
    Injected(&'static str),
}

impl core::fmt::Display for RunFileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunFileError::Io(msg) => write!(f, "run file I/O error: {msg}"),
            RunFileError::BadMagic(m) => write!(f, "bad run file magic {m:02x?}"),
            RunFileError::BadVersion(v) => write!(f, "unsupported run file version {v}"),
            RunFileError::BadShape {
                key_words,
                entry_bytes,
            } => write!(
                f,
                "inconsistent run file shape: {key_words} key words, {entry_bytes} entry bytes"
            ),
            RunFileError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated run file: {expected} bytes expected, {got} present"
                )
            }
            RunFileError::Injected(name) => write!(f, "injected fault: {name}"),
        }
    }
}

impl std::error::Error for RunFileError {}

impl From<std::io::Error> for RunFileError {
    fn from(e: std::io::Error) -> Self {
        RunFileError::Io(e.to_string())
    }
}

/// The validated header of a run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHeader {
    /// `u64` words per key, most significant first.
    pub key_words: usize,
    /// Entries in the file.
    pub count: u64,
}

impl RunHeader {
    /// Bytes of one entry.
    pub fn entry_bytes(&self) -> usize {
        self.key_words * 8 + 4
    }
}

/// Streaming writer for one sorted run.
pub struct RunFileWriter {
    w: BufWriter<File>,
    header: RunHeader,
    written: u64,
}

impl RunFileWriter {
    /// Create `path` and write the header for `count` entries of
    /// `key_words`-word keys. Traverses the `extsort.spill.write` fault
    /// point.
    pub fn create(
        path: &Path,
        key_words: usize,
        count: u64,
    ) -> Result<RunFileWriter, RunFileError> {
        if mcs_faults::fault_point!(mcs_faults::points::EXTSORT_SPILL_WRITE) {
            return Err(RunFileError::Injected(
                mcs_faults::points::EXTSORT_SPILL_WRITE,
            ));
        }
        let header = RunHeader { key_words, count };
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&RUN_MAGIC)?;
        w.write_all(&RUN_VERSION.to_le_bytes())?;
        w.write_all(&(key_words as u16).to_le_bytes())?;
        w.write_all(&(header.entry_bytes() as u32).to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
        Ok(RunFileWriter {
            w,
            header,
            written: 0,
        })
    }

    /// Append one entry (`words.len()` must equal the header's
    /// `key_words`).
    pub fn write_entry(&mut self, words: &[u64], oid: u32) -> Result<(), RunFileError> {
        debug_assert_eq!(words.len(), self.header.key_words);
        for w in words {
            self.w.write_all(&w.to_le_bytes())?;
        }
        self.w.write_all(&oid.to_le_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Flush and return the file's total size in bytes. Fails if the
    /// entry count does not match what the header promised.
    pub fn finish(mut self) -> Result<u64, RunFileError> {
        if self.written != self.header.count {
            return Err(RunFileError::Truncated {
                expected: HEADER_BYTES + self.header.count * self.header.entry_bytes() as u64,
                got: HEADER_BYTES + self.written * self.header.entry_bytes() as u64,
            });
        }
        self.w.flush()?;
        Ok(HEADER_BYTES + self.written * self.header.entry_bytes() as u64)
    }
}

/// Streaming reader over one run file, with a bounded read-ahead buffer.
pub struct RunFileReader {
    r: BufReader<File>,
    /// The validated header.
    pub header: RunHeader,
    read: u64,
    buf: Vec<u8>,
}

impl core::fmt::Debug for RunFileReader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunFileReader")
            .field("header", &self.header)
            .field("read", &self.read)
            .finish_non_exhaustive()
    }
}

impl RunFileReader {
    /// Open and validate `path` with the default read-ahead buffer.
    pub fn open(path: &Path) -> Result<RunFileReader, RunFileError> {
        Self::with_capacity(64 * 1024, path)
    }

    /// Open and validate `path`; `capacity` bounds the read-ahead buffer
    /// (the merge's per-run budget share).
    pub fn with_capacity(capacity: usize, path: &Path) -> Result<RunFileReader, RunFileError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::with_capacity(capacity.max(256), file);
        let mut head = [0u8; HEADER_BYTES as usize];
        if file_len < HEADER_BYTES {
            return Err(RunFileError::Truncated {
                expected: HEADER_BYTES,
                got: file_len,
            });
        }
        r.read_exact(&mut head)?;
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&head[0..8]);
        if magic != RUN_MAGIC {
            return Err(RunFileError::BadMagic(magic));
        }
        let version = u16::from_le_bytes([head[8], head[9]]);
        if version != RUN_VERSION {
            return Err(RunFileError::BadVersion(version));
        }
        let key_words = u16::from_le_bytes([head[10], head[11]]);
        let entry_bytes = u32::from_le_bytes([head[12], head[13], head[14], head[15]]);
        if key_words == 0 || entry_bytes as u64 != key_words as u64 * 8 + 4 {
            return Err(RunFileError::BadShape {
                key_words,
                entry_bytes,
            });
        }
        let count = u64::from_le_bytes([
            head[16], head[17], head[18], head[19], head[20], head[21], head[22], head[23],
        ]);
        // Saturating: a fuzzed count near u64::MAX must report Truncated,
        // not overflow.
        let expected = count
            .saturating_mul(entry_bytes as u64)
            .saturating_add(HEADER_BYTES);
        if file_len < expected {
            return Err(RunFileError::Truncated {
                expected,
                got: file_len,
            });
        }
        let header = RunHeader {
            key_words: key_words as usize,
            count,
        };
        Ok(RunFileReader {
            r,
            header,
            read: 0,
            buf: vec![0u8; header.entry_bytes()],
        })
    }

    /// Read the next entry's key words into `words` and return its oid,
    /// or `None` when the run is exhausted. Traverses the
    /// `extsort.spill.read` fault point.
    pub fn read_entry(&mut self, words: &mut [u64]) -> Result<Option<u32>, RunFileError> {
        if self.read == self.header.count {
            return Ok(None);
        }
        if mcs_faults::fault_point!(mcs_faults::points::EXTSORT_SPILL_READ) {
            return Err(RunFileError::Injected(
                mcs_faults::points::EXTSORT_SPILL_READ,
            ));
        }
        debug_assert_eq!(words.len(), self.header.key_words);
        if let Err(e) = self.r.read_exact(&mut self.buf) {
            // The open-time length check passed, so a short read here
            // means the file shrank underneath us.
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                return Err(RunFileError::Truncated {
                    expected: HEADER_BYTES + self.header.count * self.header.entry_bytes() as u64,
                    got: HEADER_BYTES + self.read * self.header.entry_bytes() as u64,
                });
            }
            return Err(e.into());
        }
        for (i, w) in words.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.buf[i * 8..i * 8 + 8]);
            *w = u64::from_le_bytes(b);
        }
        let o = self.header.key_words * 8;
        let oid = u32::from_le_bytes([
            self.buf[o],
            self.buf[o + 1],
            self.buf[o + 2],
            self.buf[o + 3],
        ]);
        self.read += 1;
        Ok(Some(oid))
    }
}
