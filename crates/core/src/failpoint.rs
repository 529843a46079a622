//! Deterministic fault injection for the chaos test harness.
//!
//! Compiled only with the `failpoints` feature; without it every check
//! compiles to an inline no-op so production builds pay nothing. With
//! the feature on, named fail points in the engine's hot paths —
//! `"worker_step"` and `"sequential_step"` (checked once per chain per
//! tick at the top of the session's shard step: by the epoch job on a
//! pool worker, and by the same job run inline on the caller's thread;
//! `"history_step"` when a chain set steps over recorded frames —
//! offline archives, late registration, recovery replays), and
//! `"sampler"`
//! (Monte Carlo compilation) — consult a process-global registry and
//! can panic, sleep, or return an [`EngineError::FaultInjected`]
//! according to a **seeded deterministic schedule**, so every chaos run
//! is exactly reproducible.
//!
//! ```no_run
//! # #[cfg(feature = "failpoints")] {
//! use lahar_core::failpoint::{self, FailAction, Schedule};
//! failpoint::configure("worker_step", FailAction::Panic, Schedule::Once { at: 3 });
//! // ... run the session; the 4th worker_step check panics ...
//! failpoint::clear_all();
//! # }
//! ```

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(feature = "failpoints")]
mod enabled {
    use crate::error::EngineError;
    use std::collections::HashMap;
    use std::sync::{LazyLock, Mutex};
    use std::time::Duration;

    /// What a triggered fail point does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailAction {
        /// Panic with a recognizable message (exercises `catch_unwind`
        /// recovery paths).
        Panic,
        /// Sleep for the given duration (exercises the tick watchdog).
        Delay(Duration),
        /// Return [`EngineError::FaultInjected`] from the check site.
        Error,
    }

    /// When a configured fail point triggers. All schedules are
    /// deterministic functions of the point's hit counter, which starts
    /// at zero when the point is configured.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Schedule {
        /// Trigger exactly once, on the `at`-th hit (0-based), then
        /// never again.
        Once {
            /// 0-based hit index to trigger on.
            at: u64,
        },
        /// Trigger on every `n`-th hit (hits 0, n, 2n, ...); `n = 1`
        /// means every hit. `n = 0` never triggers.
        EveryNth {
            /// Period in hits.
            n: u64,
        },
        /// Trigger pseudo-randomly with probability `num/denom` per hit,
        /// decided by a splitmix64 hash of `(seed, hit_index)` — the
        /// same seed always yields the same trigger pattern.
        Seeded {
            /// Hash seed.
            seed: u64,
            /// Numerator of the per-hit trigger probability.
            num: u64,
            /// Denominator of the per-hit trigger probability.
            denom: u64,
        },
    }

    impl Schedule {
        fn fires(&self, hit: u64) -> bool {
            match *self {
                Schedule::Once { at } => hit == at,
                Schedule::EveryNth { n } => n != 0 && hit.is_multiple_of(n),
                Schedule::Seeded { seed, num, denom } => {
                    denom != 0
                        && splitmix64(seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % denom < num
                }
            }
        }
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[derive(Debug)]
    struct Point {
        action: FailAction,
        schedule: Schedule,
        hits: u64,
        triggered: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Point>> {
        static REGISTRY: LazyLock<Mutex<HashMap<String, Point>>> =
            LazyLock::new(|| Mutex::new(HashMap::new()));
        &REGISTRY
    }

    /// Arms fail point `name` with an action and a schedule, resetting
    /// its hit counter.
    pub fn configure(name: &str, action: FailAction, schedule: Schedule) {
        registry().lock().unwrap().insert(
            name.to_owned(),
            Point {
                action,
                schedule,
                hits: 0,
                triggered: 0,
            },
        );
    }

    /// Disarms fail point `name`.
    pub fn clear(name: &str) {
        registry().lock().unwrap().remove(name);
    }

    /// Disarms every fail point. Call between chaos test cases.
    pub fn clear_all() {
        registry().lock().unwrap().clear();
    }

    /// How many times fail point `name` has triggered since it was
    /// configured.
    pub fn trigger_count(name: &str) -> u64 {
        registry()
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, |p| p.triggered)
    }

    /// Arms fail points from the `LAHAR_FAILPOINTS` environment
    /// variable, so a *subprocess* (the crash harness's spawned
    /// `lahar serve`) can be configured without any in-process call.
    /// Returns how many points were armed.
    ///
    /// Syntax: `;`-separated `name=action:schedule` entries, where
    /// `action` is `panic`, `error`, or `delay<millis>` and `schedule`
    /// is `once@N`, `every@N`, or `seeded@SEED/NUM/DENOM`. Example:
    ///
    /// ```text
    /// LAHAR_FAILPOINTS='wal_append=error:once@5;checkpoint_write=error:once@0'
    /// ```
    ///
    /// Malformed entries are reported on stderr and skipped — a chaos
    /// harness typo must not silently disable the fault.
    pub fn configure_from_env() -> usize {
        let Ok(spec) = std::env::var("LAHAR_FAILPOINTS") else {
            return 0;
        };
        let mut armed = 0;
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            match parse_entry(entry) {
                Some((name, action, schedule)) => {
                    configure(name, action, schedule);
                    armed += 1;
                }
                None => eprintln!("lahar: ignoring malformed LAHAR_FAILPOINTS entry '{entry}'"),
            }
        }
        armed
    }

    fn parse_entry(entry: &str) -> Option<(&str, FailAction, Schedule)> {
        let (name, rest) = entry.trim().split_once('=')?;
        let (action, schedule) = rest.split_once(':')?;
        let action = match action {
            "panic" => FailAction::Panic,
            "error" => FailAction::Error,
            ms => FailAction::Delay(Duration::from_millis(
                ms.strip_prefix("delay")?.parse().ok()?,
            )),
        };
        let (kind, args) = schedule.split_once('@')?;
        let schedule = match kind {
            "once" => Schedule::Once {
                at: args.parse().ok()?,
            },
            "every" => Schedule::EveryNth {
                n: args.parse().ok()?,
            },
            "seeded" => {
                let mut parts = args.split('/');
                Schedule::Seeded {
                    seed: parts.next()?.parse().ok()?,
                    num: parts.next()?.parse().ok()?,
                    denom: parts.next()?.parse().ok()?,
                }
            }
            _ => return None,
        };
        Some((name, action, schedule))
    }

    /// The check inserted at each instrumented site. Unarmed points (or
    /// schedule misses) return `Ok(())`. A triggered `Panic` action
    /// panics with `"failpoint '<name>' fired"`; `Delay` sleeps and then
    /// returns `Ok(())`; `Error` returns
    /// [`EngineError::FaultInjected`].
    pub fn check(name: &str) -> Result<(), EngineError> {
        let outcome = {
            let mut reg = registry().lock().unwrap();
            match reg.get_mut(name) {
                None => None,
                Some(p) => {
                    let hit = p.hits;
                    p.hits += 1;
                    if p.schedule.fires(hit) {
                        p.triggered += 1;
                        Some(p.action)
                    } else {
                        None
                    }
                }
            }
            // Lock dropped before acting: a Panic here must not poison
            // the registry, and a Delay must not serialize other points.
        };
        match outcome {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("failpoint '{name}' fired"),
            Some(FailAction::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FailAction::Error) => Err(EngineError::FaultInjected(name.to_owned())),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn schedules_are_deterministic() {
            assert!(Schedule::Once { at: 2 }.fires(2));
            assert!(!Schedule::Once { at: 2 }.fires(3));
            assert!(Schedule::EveryNth { n: 3 }.fires(0));
            assert!(!Schedule::EveryNth { n: 3 }.fires(1));
            assert!(Schedule::EveryNth { n: 3 }.fires(3));
            assert!(!Schedule::EveryNth { n: 0 }.fires(0));
            let s = Schedule::Seeded {
                seed: 42,
                num: 1,
                denom: 4,
            };
            let pattern_a: Vec<bool> = (0..64).map(|h| s.fires(h)).collect();
            let pattern_b: Vec<bool> = (0..64).map(|h| s.fires(h)).collect();
            assert_eq!(pattern_a, pattern_b);
            assert!(pattern_a.iter().any(|&f| f), "1/4 over 64 hits should fire");
            assert!(!pattern_a.iter().all(|&f| f));
        }

        #[test]
        fn env_entries_parse() {
            let (name, action, schedule) = parse_entry("wal_append=error:once@5").unwrap();
            assert_eq!(name, "wal_append");
            assert_eq!(action, FailAction::Error);
            assert_eq!(schedule, Schedule::Once { at: 5 });
            let (_, action, schedule) = parse_entry("x=delay250:every@3").unwrap();
            assert_eq!(action, FailAction::Delay(Duration::from_millis(250)));
            assert_eq!(schedule, Schedule::EveryNth { n: 3 });
            let (_, action, schedule) = parse_entry("y=panic:seeded@7/1/4").unwrap();
            assert_eq!(action, FailAction::Panic);
            assert_eq!(
                schedule,
                Schedule::Seeded {
                    seed: 7,
                    num: 1,
                    denom: 4
                }
            );
            assert!(parse_entry("bad").is_none());
            assert!(parse_entry("x=explode:once@0").is_none());
            assert!(parse_entry("x=error:sometimes@1").is_none());
        }

        #[test]
        fn check_follows_schedule_and_counts_triggers() {
            // Unique point name: the registry is process-global and
            // tests in this binary run concurrently.
            let name = "test_point_check_follows_schedule";
            configure(name, FailAction::Error, Schedule::Once { at: 1 });
            assert!(check(name).is_ok());
            assert_eq!(
                check(name),
                Err(EngineError::FaultInjected(name.to_owned()))
            );
            assert!(check(name).is_ok());
            assert_eq!(trigger_count(name), 1);
            clear(name);
            assert!(check(name).is_ok());
        }
    }
}

/// No-op stub used when the `failpoints` feature is off: always `Ok`,
/// compiles away entirely.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub(crate) fn check(_name: &str) -> Result<(), crate::error::EngineError> {
    Ok(())
}
