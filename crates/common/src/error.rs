//! Workspace error type.

use std::fmt;
use std::time::Duration;

/// Errors produced by the Acc-SpMM library and its substrates.
///
/// The taxonomy is typed so callers can *match* on failure classes
/// instead of parsing strings — in particular the serving-engine paths
/// ([`SpmmError::Build`], [`SpmmError::Capacity`], [`SpmmError::Timeout`])
/// and the shape checks every kernel entry point performs
/// ([`SpmmError::Shape`]). The enum is `#[non_exhaustive]`: future
/// failure classes (e.g. new engine admission states) can be added
/// without a breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpmmError {
    /// Preprocessing (plan construction) failed for a kernel.
    Build {
        /// Display name of the kernel whose plan failed to build.
        kernel: &'static str,
        /// The underlying failure, flattened to a string.
        detail: String,
    },
    /// Matrix/operand shapes do not agree for the requested operation.
    Shape {
        /// Human-readable description of the shapes involved.
        context: String,
    },
    /// A bounded resource (request queue, cache admission) is full and
    /// the request was rejected — the backpressure signal.
    Capacity {
        /// Which bounded resource rejected the request.
        what: &'static str,
        /// The resource's configured capacity.
        capacity: usize,
    },
    /// A *caller-side* wait gave up: the client stopped waiting on a
    /// ticket or blocking call after its allowance elapsed. The work
    /// itself may still complete later — contrast with
    /// [`SpmmError::DeadlineExpired`], where the *server* dropped the
    /// work before executing it, and [`SpmmError::QuotaExceeded`],
    /// where admission control refused it up front.
    Timeout {
        /// What was being waited on.
        what: &'static str,
        /// How long was waited/allowed, in milliseconds.
        waited_ms: u64,
    },
    /// Admission control refused the request because the tenant is at
    /// its quota. Unlike [`SpmmError::Capacity`] (a global bounded
    /// resource is full) this is a *per-tenant* verdict, and unlike
    /// [`SpmmError::Timeout`] no work was ever queued. `retry_after`
    /// is the engine's estimate of when the tenant's backlog will have
    /// drained enough for a resubmission to be admitted.
    QuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// Estimated wait before a retry is likely to be admitted.
        retry_after: Duration,
    },
    /// The *server* dropped queued work because its deadline passed
    /// before execution started — the request never reached a kernel.
    /// Contrast with [`SpmmError::Timeout`]: that is a client giving up
    /// on a wait; this is the scheduler refusing to spend cycles on
    /// work whose answer can no longer arrive in time.
    DeadlineExpired {
        /// How long the request sat queued before it was dropped.
        waited: Duration,
    },
    /// An index (row, column, or offset) is out of bounds.
    IndexOutOfBounds {
        /// Which structure was being indexed.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound that was violated.
        bound: usize,
    },
    /// A compressed format's internal invariants are violated.
    MalformedFormat {
        /// Description of the violated invariant.
        detail: String,
    },
    /// Failure parsing an external representation (e.g. Matrix Market).
    Parse {
        /// Line number where parsing failed (1-based), if known.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// A shard of a distributed multiply failed after exhausting its
    /// retries; surfaces which shard so operators can map the failure to
    /// a worker.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// Retries attempted before giving up.
        retries: usize,
        /// The underlying per-shard failure.
        cause: Box<SpmmError>,
    },
    /// A persisted execution plan failed to load or validate. The nested
    /// [`PlanLoadError`] distinguishes the rejection classes so callers
    /// (warm-start caches, plan-shipping coordinators) can decide between
    /// *rebuild* and *report*.
    PlanLoad(PlanLoadError),
    /// I/O failure, with the underlying message flattened to a string so the
    /// error stays `Clone + Eq`.
    Io(String),
    /// A configuration value is invalid (zero tile size, empty arch, ...).
    InvalidConfig(String),
}

/// Why a persisted plan IR was rejected by the loader/validator.
///
/// Every variant carries the *plan-side* and (where applicable) the
/// *requested* value as display strings, keeping the enum
/// `Clone + PartialEq + Eq` without dragging plan-layer types into the
/// error substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanLoadError {
    /// The bytes are not a plan IR container (bad magic, unparsable
    /// header, truncated framing).
    NotPlanIr {
        /// What failed to parse.
        detail: String,
    },
    /// The container's schema version is not supported by this build.
    VersionMismatch {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The plan was compiled for a different GPU architecture than the
    /// loader expects (balance schedules and traces are arch-specific).
    ArchMismatch {
        /// Architecture recorded in the plan header.
        plan: String,
        /// Architecture the loader was asked to validate against.
        requested: String,
    },
    /// The plan's operand content fingerprint does not match the matrix
    /// the caller wants served — the plan describes different data.
    FingerprintMismatch {
        /// Fingerprint recorded in the plan header (hex).
        plan: String,
        /// Fingerprint the loader was asked to validate against (hex).
        requested: String,
    },
    /// A non-arch binding (kernel kind, feature dimension, Acc config)
    /// disagrees with what the loader expects.
    BindingMismatch {
        /// Which binding field disagreed.
        field: &'static str,
        /// Value recorded in the plan header.
        plan: String,
        /// Value the loader was asked to validate against.
        requested: String,
    },
    /// A stage-artifact section is missing, truncated, or internally
    /// inconsistent with the header.
    ArtifactInvalid {
        /// Which section ("perm", "csr", "format").
        section: &'static str,
        /// The violated invariant.
        detail: String,
    },
}

impl fmt::Display for PlanLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanLoadError::NotPlanIr { detail } => {
                write!(f, "not a plan IR container: {detail}")
            }
            PlanLoadError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "plan IR version {found} unsupported (expected {supported})"
                )
            }
            PlanLoadError::ArchMismatch { plan, requested } => {
                write!(f, "plan compiled for {plan}, loader expects {requested}")
            }
            PlanLoadError::FingerprintMismatch { plan, requested } => {
                write!(
                    f,
                    "plan fingerprint {plan} does not match operand {requested}"
                )
            }
            PlanLoadError::BindingMismatch {
                field,
                plan,
                requested,
            } => {
                write!(f, "plan {field} is {plan}, loader expects {requested}")
            }
            PlanLoadError::ArtifactInvalid { section, detail } => {
                write!(f, "plan {section} artifact invalid: {detail}")
            }
        }
    }
}

impl From<PlanLoadError> for SpmmError {
    fn from(e: PlanLoadError) -> Self {
        SpmmError::PlanLoad(e)
    }
}

impl SpmmError {
    /// Shorthand for a [`SpmmError::Shape`] with a formatted context.
    pub fn shape(context: impl Into<String>) -> Self {
        SpmmError::Shape {
            context: context.into(),
        }
    }

    /// Shorthand for a [`SpmmError::Build`] wrapping an underlying error.
    pub fn build(kernel: &'static str, detail: impl fmt::Display) -> Self {
        SpmmError::Build {
            kernel,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for SpmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmmError::Build { kernel, detail } => {
                write!(f, "plan build failed for {kernel}: {detail}")
            }
            SpmmError::Shape { context } => {
                write!(f, "shape mismatch: {context}")
            }
            SpmmError::Capacity { what, capacity } => {
                write!(f, "{what} at capacity ({capacity}); request rejected")
            }
            SpmmError::Timeout { what, waited_ms } => {
                write!(f, "{what} timed out after {waited_ms} ms")
            }
            SpmmError::QuotaExceeded {
                tenant,
                retry_after,
            } => {
                write!(
                    f,
                    "tenant {tenant} at quota; retry after {} ms",
                    retry_after.as_millis()
                )
            }
            SpmmError::DeadlineExpired { waited } => {
                write!(
                    f,
                    "deadline expired after {} ms queued; dropped before execution",
                    waited.as_millis()
                )
            }
            SpmmError::IndexOutOfBounds { what, index, bound } => {
                write!(f, "{what} index {index} out of bounds (< {bound} required)")
            }
            SpmmError::Shard {
                shard,
                retries,
                cause,
            } => {
                write!(f, "shard {shard} failed after {retries} retries: {cause}")
            }
            SpmmError::MalformedFormat { detail } => write!(f, "malformed format: {detail}"),
            SpmmError::PlanLoad(e) => write!(f, "plan load rejected: {e}"),
            SpmmError::Parse { line, detail } => write!(f, "parse error at line {line}: {detail}"),
            SpmmError::Io(msg) => write!(f, "I/O error: {msg}"),
            SpmmError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SpmmError {}

impl From<std::io::Error> for SpmmError {
    fn from(e: std::io::Error) -> Self {
        SpmmError::Io(e.to_string())
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, SpmmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = SpmmError::shape("A is 4x4, B is 5x2");
        assert!(e.to_string().contains("4x4"));

        let e = SpmmError::IndexOutOfBounds {
            what: "row",
            index: 9,
            bound: 4,
        };
        assert!(e.to_string().contains("row index 9"));

        let e = SpmmError::Parse {
            line: 3,
            detail: "bad float".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn engine_taxonomy_is_matchable() {
        let e = SpmmError::Capacity {
            what: "engine queue",
            capacity: 16,
        };
        assert!(matches!(e, SpmmError::Capacity { capacity: 16, .. }));
        assert!(e.to_string().contains("capacity (16)"));

        let e = SpmmError::Timeout {
            what: "multiply request",
            waited_ms: 25,
        };
        assert!(matches!(e, SpmmError::Timeout { waited_ms: 25, .. }));
        assert!(e.to_string().contains("25 ms"));

        let e = SpmmError::build("Acc-SpMM", "feature_dim must be > 0");
        assert!(matches!(
            e,
            SpmmError::Build {
                kernel: "Acc-SpMM",
                ..
            }
        ));
    }

    #[test]
    fn qos_taxonomy_is_typed_and_distinct_from_timeout() {
        let e = SpmmError::QuotaExceeded {
            tenant: "acme".into(),
            retry_after: Duration::from_millis(12),
        };
        match &e {
            SpmmError::QuotaExceeded {
                tenant,
                retry_after,
            } => {
                assert_eq!(tenant, "acme");
                assert_eq!(*retry_after, Duration::from_millis(12));
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        assert!(e.to_string().contains("acme"));
        assert!(e.to_string().contains("12 ms"));

        let e = SpmmError::DeadlineExpired {
            waited: Duration::from_millis(7),
        };
        assert!(matches!(e, SpmmError::DeadlineExpired { .. }));
        assert!(!matches!(e, SpmmError::Timeout { .. }));
        assert!(e.to_string().contains("7 ms"));
        assert!(e.to_string().contains("before execution"));
    }

    #[test]
    fn shard_errors_surface_the_failing_shard() {
        let e = SpmmError::Shard {
            shard: 3,
            retries: 2,
            cause: Box::new(SpmmError::shape("bad operand")),
        };
        assert!(matches!(e, SpmmError::Shard { shard: 3, .. }));
        let msg = e.to_string();
        assert!(
            msg.contains("shard 3") && msg.contains("bad operand"),
            "{msg}"
        );
    }

    #[test]
    fn plan_load_errors_are_typed_and_informative() {
        let e: SpmmError = PlanLoadError::VersionMismatch {
            found: 7,
            supported: 1,
        }
        .into();
        assert!(matches!(
            e,
            SpmmError::PlanLoad(PlanLoadError::VersionMismatch { found: 7, .. })
        ));
        assert!(e.to_string().contains("version 7"));

        let e: SpmmError = PlanLoadError::ArchMismatch {
            plan: "H100".into(),
            requested: "A800".into(),
        }
        .into();
        assert!(e.to_string().contains("H100") && e.to_string().contains("A800"));

        let e: SpmmError = PlanLoadError::FingerprintMismatch {
            plan: "0xdead".into(),
            requested: "0xbeef".into(),
        }
        .into();
        assert!(e.to_string().contains("0xdead"));

        let e: SpmmError = PlanLoadError::ArtifactInvalid {
            section: "format",
            detail: "offsets not monotone".into(),
        }
        .into();
        assert!(e.to_string().contains("format artifact"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.mtx");
        let e: SpmmError = io.into();
        assert!(matches!(e, SpmmError::Io(_)));
        assert!(e.to_string().contains("missing.mtx"));
    }
}
