//! Offline stand-in for `criterion` 0.5, used only when building without a
//! crates.io index (see `tools/offline-shims/README.md`).
//!
//! No crate in the repository depends on it any more; it is kept because
//! the frozen `benchmark/Cargo.toml` patches it in by path and does not
//! load without the directory.
//!
//! Implements a harness subset (`criterion_group!`/`criterion_main!`,
//! `bench_function`, `benchmark_group`, `bench_with_input`, `iter`,
//! `iter_batched`): each closure runs a small, fixed number of timed
//! iterations and a median time is printed.

use std::time::{Duration, Instant};

/// How batched inputs are sized (API-compatible marker).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Opaque benchmark id, rendered as `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{}/{}", function_name.into(), parameter))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Prevent the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The timing context handed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
}

impl Bencher {
    fn time<F: FnMut()>(&self, mut f: F) -> Duration {
        // One warm-up, then `sample_size` timed runs; report the median.
        f();
        let mut samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    }

    /// Time `routine` repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let median = self.time(|| {
            black_box(routine());
        });
        print_time(median);
    }

    /// Time `routine` over fresh inputs from `setup` (setup untimed).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        // Setup cost is excluded by timing only the routine call.
        black_box(routine(setup()));
        let mut total = Duration::ZERO;
        for _ in 0..self.sample_size {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
        }
        print_time(total / (self.sample_size.max(1) as u32));
    }
}

fn print_time(t: Duration) {
    println!("    time: {t:?}  (offline shim, median of few runs)");
}

/// Benchmark registry/config (the used subset of criterion's `Criterion`).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 3 }
    }
}

impl Criterion {
    /// Set the per-benchmark sample count (clamped low in the shim).
    pub fn sample_size(mut self, n: usize) -> Self {
        // Keep offline smoke-runs fast regardless of the requested size.
        self.sample_size = n.min(5);
        self
    }

    /// Run a single benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        println!("benchmarking {id}");
        let mut b = Bencher {
            sample_size: self.sample_size,
        };
        f(&mut b);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }

    #[doc(hidden)]
    pub fn final_summary(&self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the group's sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.min(5);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        println!("benchmarking {}/{id}", self.name);
        let mut b = Bencher {
            sample_size: self.sample_size,
        };
        f(&mut b);
        self
    }

    /// Run a parameterized benchmark in this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        println!("benchmarking {}/{id}", self.name);
        let mut b = Bencher {
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Declare a benchmark group (struct form: `name = …; config = …; targets = …`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name;
                                 config = $crate::Criterion::default();
                                 targets = $($target),+);
    };
}

/// Declare the benchmark `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
