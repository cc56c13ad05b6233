//! FIRST-style crash-point injection hooks.
//!
//! Every persist boundary in the stack — a WPQ line retiring into
//! durable NVM, a drain stage completing, the `ROOT_old/ROOT_new`
//! alternation, the `N_wb` register update, each step of a manifest
//! swap — calls [`fire`] with its [`Boundary`]'s stable label. By
//! default the hook is disarmed and costs one thread-local read. A
//! harness can then:
//!
//! 1. run a workload under [`record`] to *enumerate* the boundaries it
//!    crosses, and
//! 2. re-run it under [`kill_at`] to simulate a power failure at the
//!    k-th boundary: `fire` panics with a [`KillSignal`] payload, the
//!    harness catches it, reopens the durable state from disk and
//!    asserts recovery is clean.
//!
//! The state is thread-local so parallel test threads (and parallel
//! sweep workers) never observe each other's arming. A panic
//! hook filter keeps expected kills out of test output while leaving
//! genuine panics untouched.

use std::cell::{Cell, RefCell};

/// One flight-log boundary bracket, spelled out at compile time.
macro_rules! bracket {
    ($op:literal, $label:literal) => {
        concat!(
            "{\"flight\":\"boundary\",\"op\":\"",
            $op,
            "\",\"label\":\"",
            $label,
            "\"}"
        )
    };
}

macro_rules! boundaries {
    ($($(#[$doc:meta])* $variant:ident => $label:literal,)*) => {
        /// A persist boundary of the stack: the label [`fire`] takes
        /// there, and the fixed `begin`/`end` flight-log entries
        /// bracketing it. Every bracket is a `&'static str`, so writing
        /// one allocates nothing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Boundary {
            $($(#[$doc])* $variant,)*
        }

        impl Boundary {
            /// The stable label [`fire`] records and kills at.
            pub const fn label(self) -> &'static str {
                match self {
                    $(Self::$variant => $label,)*
                }
            }

            /// The flight entry written before the boundary's action:
            /// `{"flight":"boundary","op":"begin","label":L}`.
            pub const fn begin(self) -> &'static str {
                match self {
                    $(Self::$variant => bracket!("begin", $label),)*
                }
            }

            /// The flight entry written once the boundary's kill point
            /// passed: `{"flight":"boundary","op":"end","label":L}`.
            pub const fn end(self) -> &'static str {
                match self {
                    $(Self::$variant => bracket!("end", $label),)*
                }
            }
        }
    };
}

boundaries! {
    /// A WPQ line retiring into durable NVM.
    WpqRetire => "wpq-retire",
    /// An epoch drain staged, before its `end` signal.
    DrainStage => "drain-stage",
    /// The `ROOT_old`/`ROOT_new` alternation.
    RootAlternate => "root-alternate",
    /// The `N_wb` register update.
    NwbUpdate => "nwb-update",
    /// A step of the file store's manifest swap.
    ManifestSwap => "manifest-swap",
}

/// The flight entry a file store writes when a compaction rotates its
/// sidecar (a marker, not a crash point).
pub const ROTATE_ENTRY: &str = bracket!("rotate", "compact");

/// Injection mode of the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Disarmed: `fire` is a no-op (the default).
    Off,
    /// Count boundaries and collect their labels.
    Record,
    /// Panic with a [`KillSignal`] at the target boundary.
    Kill,
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
    static FIRED: Cell<u64> = const { Cell::new(0) };
    static TARGET: Cell<u64> = const { Cell::new(0) };
    static LABELS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The payload [`fire`] panics with when an armed boundary is hit.
/// [`kill_at`] downcasts it back out of `catch_unwind`; any other
/// panic payload is resumed untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillSignal {
    /// 1-based index of the boundary that was killed.
    pub boundary: u64,
    /// The label passed to [`fire`] at that boundary.
    pub label: String,
}

/// Marks a persist boundary. Disarmed (the default) this is one
/// thread-local read; recording appends the label; killing panics with
/// a [`KillSignal`] when the armed boundary index is reached.
#[inline]
pub fn fire(label: &str) {
    match MODE.with(Cell::get) {
        Mode::Off => {}
        Mode::Record => {
            FIRED.with(|c| c.set(c.get() + 1));
            LABELS.with(|l| l.borrow_mut().push(label.to_owned()));
        }
        Mode::Kill => {
            let n = FIRED.with(|c| {
                let v = c.get() + 1;
                c.set(v);
                v
            });
            if n == TARGET.with(Cell::get) {
                std::panic::panic_any(KillSignal {
                    boundary: n,
                    label: label.to_owned(),
                });
            }
        }
    }
}

/// The distinct labels of a [`record`]ed run, in first-crossing order.
pub fn distinct_labels(labels: &[String]) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for l in labels {
        if !seen.contains(l) {
            seen.push(l.clone());
        }
    }
    seen
}

/// Disarms on drop so a panicking workload cannot leave the thread
/// armed for unrelated code.
struct ModeGuard;

impl Drop for ModeGuard {
    fn drop(&mut self) {
        MODE.with(|m| m.set(Mode::Off));
    }
}

fn arm(mode: Mode, target: u64) -> ModeGuard {
    MODE.with(|m| m.set(mode));
    FIRED.with(|c| c.set(0));
    TARGET.with(|c| c.set(target));
    LABELS.with(|l| l.borrow_mut().clear());
    ModeGuard
}

/// Runs `f` in recording mode and returns its result together with the
/// labels of every boundary it crossed, in order.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let _guard = arm(Mode::Record, 0);
    let result = f();
    let labels = LABELS.with(|l| std::mem::take(&mut *l.borrow_mut()));
    (result, labels)
}

/// Runs `f` with a kill armed at the `target`-th boundary (1-based).
/// Returns `Ok` when `f` finishes before reaching it, `Err` with the
/// kill's boundary index and label when the simulated power failure
/// fired. Panics that are not kills propagate unchanged.
///
/// # Panics
///
/// Panics when `target` is zero (boundaries are 1-based).
pub fn kill_at<R>(target: u64, f: impl FnOnce() -> R) -> Result<R, KillSignal> {
    assert!(target >= 1, "boundaries are 1-based");
    silence_expected_kills();
    let _guard = arm(Mode::Kill, target);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<KillSignal>() {
            Ok(kill) => Err(*kill),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Installs (once per process) a panic-hook filter that suppresses the
/// default report for [`KillSignal`] panics — they are simulated power
/// failures, not bugs — while delegating everything else to the
/// previously installed hook.
fn silence_expected_kills() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillSignal>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> u32 {
        fire("alpha");
        fire("beta");
        fire("gamma");
        7
    }

    #[test]
    fn disarmed_fire_is_a_no_op() {
        fire("ignored");
        let (v, labels) = record(workload);
        assert_eq!(v, 7);
        assert_eq!(labels, ["alpha", "beta", "gamma"]);
        // After recording, the hook is disarmed again.
        fire("ignored");
        let (_, labels) = record(workload);
        assert_eq!(labels.len(), 3, "no leakage between sessions");
    }

    #[test]
    fn kill_at_each_boundary_reports_its_label() {
        for (k, expected) in [(1, "alpha"), (2, "beta"), (3, "gamma")] {
            let kill = kill_at(k, workload).expect_err("must kill");
            assert_eq!(kill.boundary, k);
            assert_eq!(kill.label, expected);
        }
        // Beyond the last boundary the workload survives.
        assert_eq!(kill_at(4, workload).expect("no kill"), 7);
    }

    #[test]
    fn distinct_labels_keep_first_crossing_order() {
        let (_, labels) = record(|| {
            workload();
            workload();
            fire("delta");
        });
        assert_eq!(labels.len(), 7);
        assert_eq!(
            distinct_labels(&labels),
            ["alpha", "beta", "gamma", "delta"]
        );
    }

    #[test]
    fn brackets_spell_the_flight_grammar() {
        assert_eq!(Boundary::NwbUpdate.label(), "nwb-update");
        assert_eq!(
            Boundary::WpqRetire.begin(),
            r#"{"flight":"boundary","op":"begin","label":"wpq-retire"}"#
        );
        assert_eq!(
            Boundary::ManifestSwap.end(),
            r#"{"flight":"boundary","op":"end","label":"manifest-swap"}"#
        );
        assert_eq!(
            ROTATE_ENTRY,
            r#"{"flight":"boundary","op":"rotate","label":"compact"}"#
        );
    }

    #[test]
    fn non_kill_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            let _ = kill_at(5, || panic!("genuine bug"));
        });
        assert!(caught.is_err(), "real panics must not be swallowed");
    }
}
