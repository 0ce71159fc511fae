//! Spans recorded by the benchmark around its calls into the program:
//! name, start, end, the span that caused it, and the operation both belong
//! to. Kept in memory and written out when the run ends. Spans inside the
//! program are a later change.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The operation (or replayed handshake) this span is part of.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder. Disabled, it costs a branch per scope, which is
/// how every untraced run uses it.
pub struct Spans {
    epoch: Option<Instant>,
    current: Option<usize>,
    pub op: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn disabled() -> Self {
        Self {
            epoch: None,
            current: None,
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Stops `full` from recording more, keeping what it holds.
    pub fn disabled_keeping(full: Spans) -> Self {
        Self {
            epoch: None,
            current: None,
            ..full
        }
    }

    /// All recorders of one run share `epoch`, so their spans share a clock.
    pub fn enabled(epoch: Instant) -> Self {
        Self {
            epoch: Some(epoch),
            ..Self::disabled()
        }
    }

    /// Runs `f` inside a span called `name`, a child of whichever span is
    /// open on this recorder.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.current,
            op: self.op,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let outer = self.current.replace(id);
        let out = f(self);
        self.current = outer;
        self.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Mean duration in nanoseconds of the spans called `name`, and how
    /// many there are.
    pub fn mean_ns(&self, name: &str) -> (f64, usize) {
        let d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        let n = d.len();
        (d.iter().sum::<u64>() as f64 / n.max(1) as f64, n)
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.into())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_children_to_their_parent() {
        let mut s = Spans::enabled(Instant::now());
        s.op = 7;
        s.scope("outer", |s| {
            s.scope("a", |_| ());
            s.scope("b", |s| s.scope("c", |_| ()));
        });
        let names: Vec<_> = s.spans.iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(s.spans.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        let outer = &s.spans[0];
        assert!(s.spans[1..]
            .iter()
            .all(|c| c.start_ns >= outer.start_ns && c.end_ns <= outer.end_ns));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::disabled();
        assert_eq!(s.scope("x", |_| 5), 5);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::enabled(epoch);
        a.scope("a", |_| ());
        let mut b = Spans::enabled(epoch);
        b.scope("p", |s| s.scope("q", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
