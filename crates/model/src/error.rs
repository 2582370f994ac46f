//! Typed configuration errors.
//!
//! [`SimConfig::validate`](crate::SimConfig::validate) and everything
//! downstream of it (`Simulation::new`, `run`, `run_figure`) report
//! invalid parameter combinations as a [`ConfigError`] instead of a bare
//! `String`, so callers can match on the violated constraint while
//! `Display` keeps the human-readable message.

use std::fmt;

/// A violated [`SimConfig`](crate::SimConfig) constraint.
///
/// Each variant names the offending field (or pattern component) and the
/// rejected value; `Display` renders the same messages the stringly-typed
/// predecessor produced.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A parameter that must be strictly positive (and finite) is not.
    NotPositive {
        /// Name of the offending `SimConfig` field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A parameter that must be non-negative (and finite) is not.
    Negative {
        /// Name of the offending `SimConfig` field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A message-size parameter that must be a whole number of bits is
    /// not. Whole sizes keep the radio bit counters exact integers.
    Fractional {
        /// Name of the offending `SimConfig` field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An integer count that must be at least 1 is zero.
    ZeroCount {
        /// Name of the offending `SimConfig` field.
        field: &'static str,
    },
    /// A fraction or probability fell outside its admissible interval.
    OutOfRange {
        /// Name of the offending `SimConfig` field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The admissible interval, rendered like `[0, 1]` or `(0, 1)`.
        bounds: &'static str,
    },
    /// A hot/cold pattern with `hot_lo > hot_hi`.
    EmptyHotRegion {
        /// First hot item (inclusive).
        hot_lo: u32,
        /// Last hot item (inclusive).
        hot_hi: u32,
    },
    /// A hot region extending past the end of the database.
    HotRegionOutOfBounds {
        /// Last hot item (inclusive).
        hot_hi: u32,
        /// Database size the region must fit in.
        db_size: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::NotPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative, got {value}")
            }
            ConfigError::Fractional { field, value } => {
                write!(f, "{field} must be a whole number of bits, got {value}")
            }
            ConfigError::ZeroCount { field } => {
                write!(f, "{field} must be at least 1")
            }
            ConfigError::OutOfRange {
                field,
                value,
                bounds,
            } => {
                write!(f, "{field} out of {bounds}: {value}")
            }
            ConfigError::EmptyHotRegion { hot_lo, hot_hi } => {
                write!(f, "hot region empty: [{hot_lo}, {hot_hi}]")
            }
            ConfigError::HotRegionOutOfBounds { hot_hi, db_size } => {
                write!(
                    f,
                    "hot region end {hot_hi} outside database of {db_size} items"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_field_and_value() {
        let e = ConfigError::NotPositive {
            field: "sim_time_secs",
            value: -3.0,
        };
        assert_eq!(
            e.to_string(),
            "sim_time_secs must be positive and finite, got -3"
        );
        let e = ConfigError::OutOfRange {
            field: "p_disconnect",
            value: 1.5,
            bounds: "[0, 1]",
        };
        assert_eq!(e.to_string(), "p_disconnect out of [0, 1]: 1.5");
        let e = ConfigError::ZeroCount { field: "db_size" };
        assert_eq!(e.to_string(), "db_size must be at least 1");
        let e = ConfigError::Fractional {
            field: "header_bits",
            value: 0.5,
        };
        assert_eq!(
            e.to_string(),
            "header_bits must be a whole number of bits, got 0.5"
        );
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ConfigError::ZeroCount {
            field: "num_clients",
        });
    }
}
