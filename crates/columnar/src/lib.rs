//! # mcs-columnar
//!
//! Encoded columnar storage for the SIGMOD'16 *Fast Multi-Column Sorting*
//! reproduction: fixed-width order-preserving codes, ByteSlice layout with
//! early-stopping scans, gather-based lookups, and WideTable
//! denormalization.
//!
//! These are the storage-manager pieces the paper's prototype builds on
//! (its Figure 11): `ByteSlice-Scan` / `ByteSlice-Lookup` operators over a
//! storage layer where every value — string, decimal, date — has already
//! been encoded into a `w`-bit unsigned code.
//!
//! ```
//! use mcs_columnar::{Column, Predicate};
//!
//! let col = Column::from_u64s("price", 17, [100u64, 99_999, 42, 7]);
//! let hits = col.byteslice().scan(&Predicate::Ge(100));
//! assert_eq!(hits.to_oids(), vec![0, 1]);
//! let gathered = col.gather(&hits.to_oids());
//! assert_eq!(gathered.iter_u64().collect::<Vec<_>>(), vec![100, 99_999]);
//! ```

#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx2scan;
mod bitvec;
mod byteslice;
mod codes;
mod column;
pub mod encoding;
mod table;

pub use bitvec::BitVec;
pub use byteslice::{ByteSliceColumn, Predicate, ScanStats};
pub use codes::{size_of_width, CodeVec};
pub use column::{Column, ColumnStats, RankCodes};
pub use encoding::{encode_date, encode_scaled, width_for_cardinality, width_for_max, Dictionary};
pub use table::{widen, DimensionJoin, Table};
