//! The `.case` reproducer format: a deterministic operation trace (or
//! engine configuration) small enough to read in a code review and
//! stable enough to check into `crates/bench/tests/corpus/`.
//!
//! A case is plain text, one directive per line, `#` starts a comment:
//!
//! ```text
//! # TB 0 overflows its set and the victim is rescued next door.
//! kind trace
//! model partitioned
//! geometry 16 2 1
//! sharing adjacent
//! overhead 1
//! margin 4
//! compression none
//! concurrency 2
//! mutate none
//! op insert 1 0 101
//! op lookup 1 0
//! op finish 1
//! op check
//! ```
//!
//! `lookup`, `insert` and `finish` take an optional trailing ASID
//! (`op lookup 1 0 2` — app 2's TB 0 translating VPN 1); omitting it
//! means ASID 0, so every pre-multi-tenant case file parses unchanged
//! and solo cases serialize byte-identically to before.
//!
//! Headers may appear in any order before the first `op`; trace headers
//! irrelevant to the model (e.g. `sharing` for `model setassoc`) may be
//! omitted. `kind engine` cases instead carry `bench`, `mechanism`,
//! `sms` and `seed`, and replay a whole simulation per §V mechanism with
//! the runtime sanitizer on and off, diffing the reports. An engine case may also
//! carry a `trace <hex16-hash> <path>` directive referencing a
//! `trace/v1` file by its FNV-1a content hash: replay then streams the
//! workload from that file (after verifying the hash) instead of
//! regenerating it, so a reproducer pins the exact bytes it diverged on.

use orchestrated_tlb::SharingPolicy;
use std::fmt::Write as _;

/// Which subject/oracle pair a trace case drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Baseline VPN-indexed set-associative TLB.
    SetAssoc,
    /// The paper's TB-id-partitioned TLB.
    Partitioned,
    /// The §IV-A TB scheduler status table.
    Scheduler,
}

/// A deliberately-broken subject variant (see `mutate`); `None` runs
/// the real implementation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Mutation {
    /// The real implementation.
    #[default]
    None,
    /// Set-associative TLB that evicts the most-recently-used way.
    EvictMru,
    /// Partitioned TLB that ignores TB-finish notifications.
    SkipFlagReset,
    /// Set-associative TLB that drops the ASID from its tag compare, so
    /// co-running apps hit each other's translations.
    DropAsidTag,
}

impl Mutation {
    /// Parses a mutation name (as used by `fuzz --mutate`).
    pub fn parse(s: &str) -> Option<Mutation> {
        Some(match s {
            "none" => Mutation::None,
            "evict-mru" => Mutation::EvictMru,
            "skip-flag-reset" => Mutation::SkipFlagReset,
            "drop-asid-tag" => Mutation::DropAsidTag,
            _ => return None,
        })
    }

    /// The name used in case files and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::EvictMru => "evict-mru",
            Mutation::SkipFlagReset => "skip-flag-reset",
            Mutation::DropAsidTag => "drop-asid-tag",
        }
    }
}

/// One step of a trace case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Translate `vpn` as app `asid`'s TB `tb`.
    Lookup {
        /// Virtual page number.
        vpn: u64,
        /// Hardware TB slot issuing the request.
        tb: u8,
        /// Address space issuing the request (raw [`vmem::Asid`] value).
        asid: u16,
    },
    /// Fill `vpn -> ppn` on behalf of app `asid`'s TB `tb`.
    Insert {
        /// Virtual page number.
        vpn: u64,
        /// Hardware TB slot issuing the fill.
        tb: u8,
        /// Frame number provided by the fill path.
        ppn: u64,
        /// Address space the fill belongs to.
        asid: u16,
    },
    /// App `asid`'s TB in slot `tb` finished.
    Finish {
        /// The released hardware slot.
        tb: u8,
        /// Address space the finished TB ran on behalf of.
        asid: u16,
    },
    /// Kernel-launch concurrency change.
    Concurrency {
        /// New concurrent-TB count.
        tbs: u8,
    },
    /// Invalidate everything.
    Flush,
    /// Sweep resident contents through non-perturbing probes and diff
    /// them against the oracle.
    Check,
    /// Scheduler dispatch over the given SM snapshots, each
    /// `free:hits:accesses`.
    Pick {
        /// Per-SM `(free_slots, tlb_hits, tlb_accesses)` snapshots.
        sms: Vec<(u8, u64, u64)>,
    },
    /// Scheduler kernel-boundary reset.
    SchedReset,
}

/// A deterministic operation trace against one TLB or scheduler model.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceCase {
    /// Subject/oracle pair under test.
    pub model: ModelKind,
    /// `(entries, associativity, lookup_latency)`.
    pub geometry: (usize, usize, u64),
    /// Sharing policy (partitioned model only).
    pub sharing: SharingPolicy,
    /// Per-set lookup overhead (partitioned model only).
    pub overhead: bool,
    /// Displacement margin (partitioned model only).
    pub margin: u64,
    /// PACT'20 compression `(degree, decompress_latency)`.
    pub compression: Option<(usize, u64)>,
    /// Initial concurrent-TB count.
    pub concurrency: u8,
    /// Subject mutation (a harness self-test when not `None`).
    pub mutation: Mutation,
    /// The operations, replayed in order.
    pub ops: Vec<Op>,
}

impl Default for TraceCase {
    fn default() -> Self {
        TraceCase {
            model: ModelKind::SetAssoc,
            geometry: (64, 4, 1),
            sharing: SharingPolicy::Adjacent,
            overhead: true,
            margin: 512,
            compression: None,
            concurrency: 16,
            mutation: Mutation::None,
            ops: Vec::new(),
        }
    }
}

/// A content-addressed reference to a `trace/v1` file: the replay
/// refuses to run unless the file's FNV-1a hash matches, so a checked-in
/// reproducer can never silently diverge against different trace bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRef {
    /// Expected `workloads::format::file_hash` of the file.
    pub hash: u64,
    /// Path to the trace file (relative paths resolve against the
    /// replaying process's working directory).
    pub path: String,
}

/// A whole-simulation differential case: one benchmark × mechanism ×
/// machine size, replayed sanitized and unsanitized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineCase {
    /// Benchmark name from the `workloads` registry.
    pub bench: String,
    /// Co-running benchmark names (including `bench` itself). When this
    /// holds two or more names the replay is an app-interleaved co-run —
    /// each app gets its own ASID and address space — instead of a solo
    /// run of `bench`. Empty means solo.
    pub apps: Vec<String>,
    /// Mechanism label (see `Mechanism::label`).
    pub mechanism: String,
    /// Number of SMs.
    pub sms: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Optional trace file to stream the workload from (hash-verified)
    /// instead of regenerating it from `bench`/`seed`.
    pub trace: Option<TraceRef>,
}

/// Any reproducer the harness can replay.
#[derive(Clone, Debug, PartialEq)]
pub enum Case {
    /// An operation trace against a single model.
    Trace(TraceCase),
    /// A whole-simulation sanitizer-equivalence case.
    Engine(EngineCase),
}

impl Case {
    /// Serializes to the text format (inverse of [`Case::parse`]).
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        match self {
            Case::Trace(t) => {
                s.push_str("kind trace\n");
                let model = match t.model {
                    ModelKind::SetAssoc => "setassoc",
                    ModelKind::Partitioned => "partitioned",
                    ModelKind::Scheduler => "scheduler",
                };
                let _ = writeln!(s, "model {model}");
                let (e, a, l) = t.geometry;
                let _ = writeln!(s, "geometry {e} {a} {l}");
                if t.model == ModelKind::Partitioned {
                    let sharing = match t.sharing {
                        SharingPolicy::None => "none".to_owned(),
                        SharingPolicy::Adjacent => "adjacent".to_owned(),
                        SharingPolicy::AdjacentCounter { threshold } => {
                            format!("counter:{threshold}")
                        }
                        SharingPolicy::AllToAll => "all-to-all".to_owned(),
                    };
                    let _ = writeln!(s, "sharing {sharing}");
                    let _ = writeln!(s, "overhead {}", u8::from(t.overhead));
                    let _ = writeln!(s, "margin {}", t.margin);
                    match t.compression {
                        None => s.push_str("compression none\n"),
                        Some((d, l)) => {
                            let _ = writeln!(s, "compression degree:{d},lat:{l}");
                        }
                    }
                    let _ = writeln!(s, "concurrency {}", t.concurrency);
                }
                let _ = writeln!(s, "mutate {}", t.mutation.name());
                for op in &t.ops {
                    match op {
                        Op::Lookup { vpn, tb, asid } => {
                            let _ = match asid {
                                0 => writeln!(s, "op lookup {vpn} {tb}"),
                                a => writeln!(s, "op lookup {vpn} {tb} {a}"),
                            };
                        }
                        Op::Insert { vpn, tb, ppn, asid } => {
                            let _ = match asid {
                                0 => writeln!(s, "op insert {vpn} {tb} {ppn}"),
                                a => writeln!(s, "op insert {vpn} {tb} {ppn} {a}"),
                            };
                        }
                        Op::Finish { tb, asid } => {
                            let _ = match asid {
                                0 => writeln!(s, "op finish {tb}"),
                                a => writeln!(s, "op finish {tb} {a}"),
                            };
                        }
                        Op::Concurrency { tbs } => {
                            let _ = writeln!(s, "op concurrency {tbs}");
                        }
                        Op::Flush => s.push_str("op flush\n"),
                        Op::Check => s.push_str("op check\n"),
                        Op::Pick { sms } => {
                            s.push_str("op pick");
                            for (f, h, a) in sms {
                                let _ = write!(s, " {f}:{h}:{a}");
                            }
                            s.push('\n');
                        }
                        Op::SchedReset => s.push_str("op sched-reset\n"),
                    }
                }
            }
            Case::Engine(e) => {
                s.push_str("kind engine\n");
                let _ = writeln!(s, "bench {}", e.bench);
                if !e.apps.is_empty() {
                    let _ = writeln!(s, "apps {}", e.apps.join(" "));
                }
                let _ = writeln!(s, "mechanism {}", e.mechanism);
                let _ = writeln!(s, "sms {}", e.sms);
                let _ = writeln!(s, "seed {}", e.seed);
                if let Some(t) = &e.trace {
                    let _ = writeln!(s, "trace {:016x} {}", t.hash, t.path);
                }
            }
        }
        s
    }

    /// Parses the text format; returns a line-tagged error message on
    /// malformed input.
    pub fn parse(text: &str) -> Result<Case, String> {
        let mut kind: Option<&str> = None;
        let mut trace = TraceCase::default();
        let mut engine = EngineCase {
            bench: String::new(),
            apps: Vec::new(),
            mechanism: String::new(),
            sms: 4,
            seed: 0,
            trace: None,
        };
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {raw:?}", idx + 1);
            let mut fields = line.split_whitespace();
            let key = fields.next().expect("non-empty line has a first field");
            let rest: Vec<&str> = fields.collect();
            match key {
                "kind" => kind = Some(if rest == ["trace"] { "trace" } else { "engine" }),
                "model" => {
                    trace.model = match rest.first().copied() {
                        Some("setassoc") => ModelKind::SetAssoc,
                        Some("partitioned") => ModelKind::Partitioned,
                        Some("scheduler") => ModelKind::Scheduler,
                        _ => return Err(err("unknown model")),
                    }
                }
                "geometry" => {
                    let nums: Vec<u64> = rest
                        .iter()
                        .map(|v| v.parse::<u64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err("geometry wants three integers"))?;
                    if nums.len() != 3 {
                        return Err(err("geometry wants three integers"));
                    }
                    trace.geometry = (nums[0] as usize, nums[1] as usize, nums[2]);
                }
                "sharing" => {
                    trace.sharing = match rest.first().copied() {
                        Some("none") => SharingPolicy::None,
                        Some("adjacent") => SharingPolicy::Adjacent,
                        Some("all-to-all") => SharingPolicy::AllToAll,
                        Some(v) if v.starts_with("counter:") => {
                            let threshold = v["counter:".len()..]
                                .parse()
                                .map_err(|_| err("bad counter threshold"))?;
                            SharingPolicy::AdjacentCounter { threshold }
                        }
                        _ => return Err(err("unknown sharing policy")),
                    }
                }
                "overhead" => trace.overhead = rest.first() == Some(&"1"),
                "margin" => {
                    trace.margin = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("margin wants an integer"))?;
                }
                "compression" => {
                    trace.compression = match rest.first().copied() {
                        Some("none") | None => None,
                        Some(v) => {
                            let parse = |s: &str, prefix: &str| {
                                s.strip_prefix(prefix).and_then(|n| n.parse::<u64>().ok())
                            };
                            let mut parts = v.split(',');
                            let d = parts.next().and_then(|p| parse(p, "degree:"));
                            let l = parts.next().and_then(|p| parse(p, "lat:"));
                            match (d, l) {
                                (Some(d), Some(l)) => Some((d as usize, l)),
                                _ => return Err(err("compression wants degree:D,lat:L")),
                            }
                        }
                    }
                }
                "concurrency" => {
                    trace.concurrency = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("concurrency wants an integer"))?;
                }
                "mutate" => {
                    trace.mutation = rest
                        .first()
                        .and_then(|v| Mutation::parse(v))
                        .ok_or_else(|| err("unknown mutation"))?;
                }
                "bench" => engine.bench = rest.first().unwrap_or(&"").to_string(),
                "apps" => {
                    if rest.len() < 2 {
                        return Err(err("apps wants two or more benchmark names"));
                    }
                    engine.apps = rest.iter().map(|v| v.to_string()).collect();
                }
                "mechanism" => engine.mechanism = rest.first().unwrap_or(&"").to_string(),
                "sms" => {
                    engine.sms = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("sms wants an integer"))?;
                }
                "seed" => {
                    engine.seed = rest
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("seed wants an integer"))?;
                }
                "trace" => {
                    let hash = rest
                        .first()
                        .filter(|h| h.len() == 16)
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| err("trace wants a 16-hex-digit hash and a path"))?;
                    if rest.len() < 2 {
                        return Err(err("trace wants a 16-hex-digit hash and a path"));
                    }
                    engine.trace = Some(TraceRef {
                        hash,
                        path: rest[1..].join(" "),
                    });
                }
                "op" => {
                    let int = |i: usize, what: &str| {
                        rest.get(i)
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| err(what))
                    };
                    // A trailing ASID is optional on lookup/insert/finish:
                    // absent means ASID 0 (the solo default).
                    let opt = |i: usize, what: &str| match rest.get(i) {
                        None => Ok(0u16),
                        Some(v) => v.parse::<u16>().map_err(|_| err(what)),
                    };
                    let op = match rest.first().copied() {
                        Some("lookup") => Op::Lookup {
                            vpn: int(1, "lookup wants vpn tb [asid]")?,
                            tb: int(2, "lookup wants vpn tb [asid]")? as u8,
                            asid: opt(3, "lookup wants vpn tb [asid]")?,
                        },
                        Some("insert") => Op::Insert {
                            vpn: int(1, "insert wants vpn tb ppn [asid]")?,
                            tb: int(2, "insert wants vpn tb ppn [asid]")? as u8,
                            ppn: int(3, "insert wants vpn tb ppn [asid]")?,
                            asid: opt(4, "insert wants vpn tb ppn [asid]")?,
                        },
                        Some("finish") => Op::Finish {
                            tb: int(1, "finish wants tb [asid]")? as u8,
                            asid: opt(2, "finish wants tb [asid]")?,
                        },
                        Some("concurrency") => Op::Concurrency {
                            tbs: int(1, "concurrency wants tbs")? as u8,
                        },
                        Some("flush") => Op::Flush,
                        Some("check") => Op::Check,
                        Some("sched-reset") => Op::SchedReset,
                        Some("pick") => {
                            let mut sms = Vec::new();
                            for spec in &rest[1..] {
                                let nums: Vec<u64> = spec
                                    .split(':')
                                    .map(|v| v.parse::<u64>())
                                    .collect::<Result<_, _>>()
                                    .map_err(|_| err("pick wants free:hits:accesses"))?;
                                if nums.len() != 3 {
                                    return Err(err("pick wants free:hits:accesses"));
                                }
                                sms.push((nums[0] as u8, nums[1], nums[2]));
                            }
                            Op::Pick { sms }
                        }
                        _ => return Err(err("unknown op")),
                    };
                    trace.ops.push(op);
                }
                _ => return Err(err("unknown directive")),
            }
        }
        match kind {
            Some("trace") => Ok(Case::Trace(trace)),
            Some("engine") => {
                if engine.bench.is_empty() || engine.mechanism.is_empty() {
                    return Err("engine case needs bench and mechanism".to_owned());
                }
                Ok(Case::Engine(engine))
            }
            _ => Err("missing `kind trace` or `kind engine`".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let case = Case::Trace(TraceCase {
            model: ModelKind::Partitioned,
            geometry: (16, 2, 1),
            sharing: SharingPolicy::AdjacentCounter { threshold: 3 },
            overhead: false,
            margin: 7,
            compression: Some((4, 2)),
            concurrency: 2,
            mutation: Mutation::SkipFlagReset,
            ops: vec![
                Op::Insert { vpn: 5, tb: 0, ppn: 50, asid: 0 },
                Op::Insert { vpn: 5, tb: 0, ppn: 90, asid: 2 },
                Op::Lookup { vpn: 5, tb: 1, asid: 0 },
                Op::Lookup { vpn: 5, tb: 1, asid: 2 },
                Op::Finish { tb: 1, asid: 1 },
                Op::Concurrency { tbs: 4 },
                Op::Flush,
                Op::Check,
            ],
        });
        let text = case.serialize();
        assert_eq!(Case::parse(&text), Ok(case));
    }

    #[test]
    fn solo_ops_serialize_without_an_asid_column() {
        // Pre-multi-tenant corpus files must keep parsing, and solo cases
        // must keep serializing byte-identically: ASID 0 is omitted.
        let case = Case::Trace(TraceCase {
            ops: vec![
                Op::Insert { vpn: 5, tb: 0, ppn: 50, asid: 0 },
                Op::Lookup { vpn: 5, tb: 0, asid: 0 },
                Op::Finish { tb: 0, asid: 0 },
            ],
            ..TraceCase::default()
        });
        let text = case.serialize();
        assert!(text.contains("op insert 5 0 50\n"), "{text}");
        assert!(text.contains("op lookup 5 0\n"), "{text}");
        assert!(text.contains("op finish 0\n"), "{text}");
        assert_eq!(Case::parse(&text), Ok(case));
    }

    #[test]
    fn scheduler_round_trips() {
        let case = Case::Trace(TraceCase {
            model: ModelKind::Scheduler,
            ops: vec![
                Op::Pick { sms: vec![(1, 10, 100), (2, 90, 100)] },
                Op::SchedReset,
            ],
            ..TraceCase::default()
        });
        let text = case.serialize();
        assert_eq!(Case::parse(&text), Ok(case));
    }

    #[test]
    fn engine_round_trips() {
        let case = Case::Engine(EngineCase {
            bench: "gemm".to_owned(),
            apps: Vec::new(),
            mechanism: "sched+part+share".to_owned(),
            sms: 4,
            seed: 9,
            trace: None,
        });
        let text = case.serialize();
        assert!(!text.contains("apps"), "solo cases omit the apps line: {text}");
        assert_eq!(Case::parse(&text), Ok(case));
    }

    #[test]
    fn corun_engine_round_trips() {
        let case = Case::Engine(EngineCase {
            bench: "gemm".to_owned(),
            apps: vec!["gemm".to_owned(), "bfs".to_owned(), "mvt".to_owned()],
            mechanism: "ours+mask-tokens".to_owned(),
            sms: 4,
            seed: 3,
            trace: None,
        });
        let text = case.serialize();
        assert!(text.contains("apps gemm bfs mvt\n"), "{text}");
        assert_eq!(Case::parse(&text), Ok(case));
        assert!(
            Case::parse("kind engine\nbench gemm\napps gemm\nmechanism baseline\n").is_err(),
            "a one-app apps line is not a co-run"
        );
    }

    #[test]
    fn engine_trace_ref_round_trips() {
        let case = Case::Engine(EngineCase {
            bench: "bfs".to_owned(),
            apps: Vec::new(),
            mechanism: "baseline".to_owned(),
            sms: 2,
            seed: 7,
            trace: Some(TraceRef {
                hash: 0x0123_4567_89ab_cdef,
                path: "traces/bfs-test-s7-4k.v1.trace".to_owned(),
            }),
        });
        let text = case.serialize();
        assert!(text.contains("trace 0123456789abcdef "), "{text}");
        assert_eq!(Case::parse(&text), Ok(case));
    }

    #[test]
    fn bad_trace_directives_name_their_line() {
        for bad in [
            "kind engine\nbench gemm\nmechanism baseline\ntrace xyz p\n",
            "kind engine\nbench gemm\nmechanism baseline\ntrace 0123456789abcdef\n",
        ] {
            let e = Case::parse(bad).unwrap_err();
            assert!(e.contains("line 4"), "{e}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# reproducer\n\nkind trace\nmodel setassoc\ngeometry 8 2 1\n# churn\nop lookup 3 0\n";
        let Case::Trace(t) = Case::parse(text).expect("parses") else {
            panic!("expected trace");
        };
        assert_eq!(t.ops, vec![Op::Lookup { vpn: 3, tb: 0, asid: 0 }]);
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let e = Case::parse("kind trace\nop warble\n").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }
}
