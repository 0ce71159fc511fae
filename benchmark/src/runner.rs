//! The measured window: every client runs its operation in a closed loop on
//! its own thread while the calling thread marks slice boundaries and reads
//! the process's CPU time at each.
//!
//! # The yardstick
//!
//! On the shared boxes this runs on, the processor itself is 10 to 50 %
//! slower for anything from a tenth of a second to minutes at a time (wall
//! and CPU time per operation rise together; no steal is reported), which
//! no statistic within a 10 s window can remove. So every generator thread
//! also times, between operations and every 20 ms, a fixed piece of integer
//! work of the benchmark's own: the yardstick. Times are reported in
//! **reference milliseconds**: each operation's duration divided by how much
//! slower than [`YARDSTICK_REF_NS`] the yardstick ran on the same thread
//! just before and after it. On a quiet box the divisor is 1. The yardstick
//! calls nothing of the program, so no change to the program moves it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::spans::Spans;
use crate::stats::{median, nearest_rank, sort};
use crate::workloads::Client;

/// The window is cut into this many slices and the rate metrics are the
/// median over slices, so a few seconds of a busy neighbour do not move them.
pub const SLICES: usize = 10;

/// A traced client stops recording once it holds this many spans; the
/// window runs on, so the sample counts stay those of a full window.
const SPAN_CAP: usize = 20_000;

/// A client that fails this many operations in a row stops issuing them.
const GIVE_UP_AFTER: u32 = 50;

/// What the yardstick takes on the box the benchmark was sized on, quiet.
pub const YARDSTICK_REF_NS: f64 = 40_000.0;

const YARDSTICK_EVERY: Duration = Duration::from_millis(20);

/// A fixed piece of integer work shaped like the program's hottest loop: an
/// 8x8-limb multiply-accumulate with carries, fed back into itself. Returns
/// how long it took; it runs twice and the second is timed, so a processor
/// that was idle a moment ago (a client back from an `fsync`) is not
/// mistaken for a slow one.
pub fn yardstick_ns() -> u64 {
    fn work() -> u64 {
        // Opaque inputs, or the second call is folded into the first.
        let mut a = [black_box(0x9E37_79B9_7F4A_7C15u64); 8];
        let b = [black_box(0xD1B5_4A32_D192_ED03u64); 8];
        for _ in 0..1000 {
            let mut t = [0u64; 16];
            for i in 0..8 {
                let mut carry = 0u128;
                for j in 0..8 {
                    let p = u128::from(a[j]) * u128::from(b[i]) + u128::from(t[i + j]) + carry;
                    t[i + j] = p as u64;
                    carry = p >> 64;
                }
                t[i + 8] = carry as u64;
            }
            for j in 0..8 {
                a[j] = t[j] ^ t[j + 8];
            }
        }
        a.iter().fold(0, |x, y| x ^ y)
    }
    black_box(work());
    let t = Instant::now();
    black_box(work());
    t.elapsed().as_nanos() as u64
}

/// How much slower than the reference the processor is right now (1 = as
/// fast): the median of nine yardsticks.
pub fn slowdown_now() -> f64 {
    let y: Vec<f64> = (0..9).map(|_| yardstick_ns() as f64).collect();
    median(&y) / YARDSTICK_REF_NS
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    /// How much slower than the reference the issuing thread's yardstick
    /// ran around this operation.
    pub slowdown: f64,
}

impl Sample {
    /// Duration in reference nanoseconds.
    fn ref_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / self.slowdown
    }
}

/// Gives every sample of one thread its slowdown from that thread's
/// yardstick readings `(when_ns, took_ns)`, both in time order: the mean of
/// the last reading before the operation and the first after it, each
/// smoothed by the median with its two neighbours so that one reading hit by
/// an interrupt does not pass for a slow processor.
fn assign_slowdowns(samples: &mut [Sample], readings: &[(u64, u64)]) {
    if readings.is_empty() {
        return;
    }
    let smooth: Vec<f64> = (0..readings.len())
        .map(|k| {
            let near = &readings[k.saturating_sub(1)..(k + 2).min(readings.len())];
            median(&near.iter().map(|r| r.1 as f64).collect::<Vec<_>>()) / YARDSTICK_REF_NS
        })
        .collect();
    for s in samples {
        let after = readings.partition_point(|r| r.0 <= s.start_ns);
        let before = after.saturating_sub(1);
        s.slowdown = (smooth[before] + smooth[after.min(readings.len() - 1)]) / 2.0;
    }
}

pub struct Window {
    /// Every operation each client issued, in issue order.
    pub samples: Vec<Vec<Sample>>,
    /// Slice boundaries: nanoseconds since the window opened, and the
    /// process's CPU seconds read at that instant. `SLICES + 1` of them.
    pub marks: Vec<(u64, f64)>,
    pub ctx_switches: u64,
    pub first_error: Option<String>,
    pub spans: Spans,
}

pub fn run_window(clients: &mut [Box<dyn Client>], seconds: f64, trace: bool) -> Window {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(clients.len() + 1);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (stop, barrier) = (&stop, &barrier);
                scope.spawn(move || {
                    let mut spans = if trace {
                        Spans::enabled(epoch)
                    } else {
                        Spans::disabled()
                    };
                    let mut samples = Vec::with_capacity(1 << 16);
                    let mut yardsticks = Vec::with_capacity(1 << 10);
                    let mut first_error = None;
                    let mut failures_in_a_row = 0;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) && failures_in_a_row < GIVE_UP_AFTER {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if yardsticks
                            .last()
                            .is_none_or(|&(at, _)| now - at >= YARDSTICK_EVERY.as_nanos() as u64)
                        {
                            yardsticks.push((now, yardstick_ns()));
                        }
                        client.prepare();
                        if spans.spans.len() >= SPAN_CAP {
                            spans = Spans::disabled_keeping(spans);
                        }
                        spans.op = samples.len() as u64;
                        let start = epoch.elapsed();
                        let result = spans.scope("op", |s| client.op(s));
                        let end = epoch.elapsed();
                        failures_in_a_row = match &result {
                            Ok(()) => 0,
                            Err(_) => failures_in_a_row + 1,
                        };
                        samples.push(Sample {
                            start_ns: start.as_nanos() as u64,
                            end_ns: end.as_nanos() as u64,
                            ok: result.is_ok(),
                            slowdown: 1.0,
                        });
                        if let (Err(e), None) = (result, &first_error) {
                            first_error = Some(e);
                        }
                    }
                    yardsticks.push((epoch.elapsed().as_nanos() as u64, yardstick_ns()));
                    assign_slowdowns(&mut samples, &yardsticks);
                    (samples, first_error, spans)
                })
            })
            .collect();

        barrier.wait();
        let open = epoch.elapsed();
        let ctx0 = procfs::ctx_switches();
        let mut marks = vec![(open.as_nanos() as u64, procfs::cpu_s())];
        for i in 1..=SLICES {
            let due = open + Duration::from_secs_f64(seconds * i as f64 / SLICES as f64);
            std::thread::sleep(due.saturating_sub(epoch.elapsed()));
            marks.push((epoch.elapsed().as_nanos() as u64, procfs::cpu_s()));
        }
        let ctx_switches = procfs::ctx_switches() - ctx0;
        stop.store(true, Ordering::Relaxed);

        let mut window = Window {
            samples: Vec::new(),
            marks,
            ctx_switches,
            first_error: None,
            spans: Spans::enabled(epoch),
        };
        for h in handles {
            let (samples, first_error, spans) = h.join().expect("client thread panicked");
            window.samples.push(samples);
            window.first_error = window.first_error.or(first_error);
            window.spans.absorb(spans);
        }
        window
    })
}

/// What one window says about a workload, before it is given metric names.
/// Every time is in reference milliseconds (see the module text).
#[derive(Debug)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Successful operations that started and ended inside the window.
    pub completed: u64,
    pub ops_per_s: f64,
    pub op_p50_ms: f64,
    pub cpu_ms_per_op: f64,
    /// Latency at p50, p75, p90, p95, p99 and the maximum.
    pub ladder_ms: [f64; 6],
    /// CPU seconds per wall second, as the clock saw them.
    pub cpu_util: f64,
    pub ctx_switches_per_op: f64,
    pub window_s: f64,
    /// Per slice: how much slower than the reference the yardstick ran
    /// while the clients were busy, and completions per wall second before
    /// that was divided out.
    pub slice_slowdown: Vec<f64>,
    pub slice_raw_rates: Vec<f64>,
    /// The same slowdown over the whole window.
    pub slowdown: f64,
}

/// One slice of the window, summed over the clients.
struct Slice {
    /// Operations completed, an operation that straddles a boundary
    /// counting by the share of its duration inside.
    done: f64,
    /// Completions per second of client busy time, wall and reference. For
    /// clients that issue back to back the first is completions per wall
    /// second; untimed housekeeping between operations lowers neither.
    raw_rate: f64,
    rate: f64,
    /// Busy-time-weighted slowdown of the operations in the slice.
    slowdown: f64,
}

impl Window {
    fn slice(&self, from: u64, to: u64) -> Slice {
        let mut out = Slice {
            done: 0.0,
            raw_rate: 0.0,
            rate: 0.0,
            slowdown: 1.0,
        };
        let (mut all_busy, mut all_ref_busy) = (0.0, 0.0);
        for client in &self.samples {
            let (mut ops, mut busy_ns, mut ref_busy_ns) = (0.0, 0.0, 0.0);
            for s in client {
                let overlap = s.end_ns.min(to).saturating_sub(s.start_ns.max(from)) as f64;
                if overlap > 0.0 {
                    busy_ns += overlap;
                    ref_busy_ns += overlap / s.slowdown;
                    if s.ok {
                        ops += overlap / (s.end_ns - s.start_ns) as f64;
                    }
                }
            }
            out.done += ops;
            if busy_ns > 0.0 {
                out.raw_rate += ops / (busy_ns / 1e9);
                out.rate += ops / (ref_busy_ns / 1e9);
            }
            all_busy += busy_ns;
            all_ref_busy += ref_busy_ns;
        }
        if all_ref_busy > 0.0 {
            out.slowdown = all_busy / all_ref_busy;
        }
        out
    }

    pub fn measure(&self) -> Measured {
        let (open, close) = (self.marks[0].0, self.marks[SLICES].0);
        let slices: Vec<Slice> = self
            .marks
            .windows(2)
            .map(|pair| self.slice(pair[0].0, pair[1].0))
            .collect();
        let cpu_per_op: Vec<f64> = self
            .marks
            .windows(2)
            .zip(&slices)
            .filter(|(_, s)| s.done > 0.0)
            .map(|(pair, s)| (pair[1].1 - pair[0].1) * 1e3 / s.done / s.slowdown)
            .collect();
        let all = self.samples.iter().flatten();
        let latencies_ms = sort(
            all.clone()
                .filter(|s| s.ok && s.start_ns >= open && s.end_ns <= close)
                .map(|s| s.ref_ns() / 1e6)
                .collect(),
        );
        let rank = |q| {
            latencies_ms
                .first()
                .map_or(0.0, |_| nearest_rank(&latencies_ms, q))
        };
        let n = latencies_ms.len();
        let window_s = (close - open) as f64 / 1e9;
        Measured {
            attempted: all.clone().count() as u64,
            failed: all.filter(|s| !s.ok).count() as u64,
            completed: n as u64,
            ops_per_s: median(&slices.iter().map(|s| s.rate).collect::<Vec<_>>()),
            op_p50_ms: rank(0.5),
            cpu_ms_per_op: if cpu_per_op.is_empty() {
                0.0
            } else {
                median(&cpu_per_op)
            },
            ladder_ms: [0.5, 0.75, 0.9, 0.95, 0.99, 1.0].map(rank),
            cpu_util: (self.marks[SLICES].1 - self.marks[0].1) / window_s,
            ctx_switches_per_op: self.ctx_switches as f64 / n.max(1) as f64,
            window_s,
            slowdown: self.slice(open, close).slowdown,
            slice_slowdown: slices.iter().map(|s| s.slowdown).collect(),
            slice_raw_rates: slices.iter().map(|s| s.raw_rate).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `seconds`, half a CPU busy.
    fn window(samples: Vec<Vec<Sample>>, seconds: u64) -> Window {
        let ns = seconds * 1_000_000_000;
        Window {
            samples,
            marks: (0..=SLICES as u64)
                .map(|i| (i * ns / SLICES as u64, i as f64 * 0.5))
                .collect(),
            ctx_switches: 0,
            first_error: None,
            spans: Spans::disabled(),
        }
    }

    fn op(start_ns: u64, end_ns: u64) -> Sample {
        Sample {
            start_ns,
            end_ns,
            ok: true,
            slowdown: 1.0,
        }
    }

    fn back_to_back(op_ns: u64, until_ns: u64, slowdown: f64) -> Vec<Sample> {
        (0..until_ns / op_ns)
            .map(|i| Sample {
                slowdown,
                ..op(i * op_ns, (i + 1) * op_ns)
            })
            .collect()
    }

    #[test]
    fn two_gapless_clients_add_their_rates() {
        // 7 ms operations never align with the 1 s slices; the fractional
        // count still gives each client 1/0.007 per second.
        let w = window(vec![back_to_back(7_000_000, 10_500_000_000, 1.0); 2], 10);
        let m = w.measure();
        assert!((m.ops_per_s - 2.0 / 0.007).abs() < 1e-6, "{}", m.ops_per_s);
        assert_eq!(m.op_p50_ms, 7.0);
        assert_eq!(m.ladder_ms[3], 7.0);
        assert_eq!(m.failed, 0);
        // 0.5 CPU-s per 1 s slice over 2/0.007 operations.
        assert!((m.cpu_ms_per_op - 500.0 * 0.007 / 2.0).abs() < 1e-9);
        assert!((m.cpu_util - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_slower_processor_is_divided_out() {
        // The same work on a processor the yardstick says is 1.25x slower:
        // 8.75 ms operations read as 7 reference ms.
        let w = window(vec![back_to_back(8_750_000, 10_500_000_000, 1.25)], 10);
        let m = w.measure();
        assert!((m.op_p50_ms - 7.0).abs() < 1e-9, "{}", m.op_p50_ms);
        assert!((m.ops_per_s - 1.0 / 0.007).abs() < 1e-6, "{}", m.ops_per_s);
        assert!((m.cpu_ms_per_op - 500.0 * 0.00875 / 1.25).abs() < 1e-9);
        assert!(m.slice_slowdown.iter().all(|s| (s - 1.25).abs() < 1e-9));
        assert!((m.slice_raw_rates[0] - 1.0 / 0.00875).abs() < 1e-6);
    }

    #[test]
    fn slowdowns_come_from_the_readings_around_each_operation() {
        let reading =
            |at_ms: u64, slowdown: f64| (at_ms * 1_000_000, (YARDSTICK_REF_NS * slowdown) as u64);
        // Quiet, one reading hit by an interrupt, then a slow stretch.
        let readings = [
            reading(0, 1.0),
            reading(20, 1.0),
            reading(40, 9.0),
            reading(60, 1.0),
            reading(80, 1.0),
            reading(100, 1.5),
            reading(120, 1.5),
            reading(140, 1.5),
        ];
        let mut samples = [
            op(21_000_000, 39_000_000),
            op(41_000_000, 59_000_000),
            op(121_000_000, 139_000_000),
            op(141_000_000, 159_000_000),
        ];
        assign_slowdowns(&mut samples, &readings);
        let got: Vec<f64> = samples.iter().map(|s| s.slowdown).collect();
        assert_eq!(got, [1.0, 1.0, 1.5, 1.5]);
        // No readings at all: operations keep the neutral divisor.
        let mut alone = [op(0, 10)];
        assign_slowdowns(&mut alone, &[]);
        assert_eq!(alone[0].slowdown, 1.0);
    }

    #[test]
    fn untimed_gaps_do_not_lower_the_rate() {
        let gappy: Vec<Sample> = (0..1000u64)
            .map(|i| op(i * 20_000_000, i * 20_000_000 + 10_000_000))
            .collect();
        let m = window(vec![gappy], 10).measure();
        assert!((m.ops_per_s - 100.0).abs() < 1e-6, "{}", m.ops_per_s);
    }

    #[test]
    fn failed_operations_count_as_attempted_not_completed() {
        let mut s = back_to_back(10_000_000, 10_000_000_000, 1.0);
        s[3].ok = false;
        let m = window(vec![s], 10).measure();
        assert_eq!((m.attempted, m.failed, m.completed), (1000, 1, 999));
    }

    #[test]
    fn operations_outside_the_window_have_no_latency() {
        let mut s = back_to_back(10_000_000, 10_000_000_000, 1.0);
        // Straddles the close: counted as attempted, not ranked.
        s.push(op(9_995_000_000, 10_900_000_000));
        let m = window(vec![s], 10).measure();
        assert_eq!(m.completed, 1000);
        assert_eq!(m.ladder_ms[5], 10.0);
    }

    #[test]
    fn yardstick_takes_a_plausible_time() {
        let ns = yardstick_ns();
        assert!(ns > 1_000 && ns < 50_000_000, "{ns}");
    }
}
