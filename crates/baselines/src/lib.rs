//! # ft-baselines — empty
//!
//! The naive heals' stated cost model lives in `ft_metrics::scenario`,
//! next to its one caller. This crate holds nothing: it stays only because
//! the `ftbench` package's own `Cargo.lock` lists it, and goes when that
//! lock is next rewritten.
