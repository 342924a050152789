//! The workspace's structural rules, checked on its own sources.
//!
//! Each rule is a design decision an earlier change paid for (one JSON
//! codec, one event fan-out, one way to start a run, one Algorithm 2,
//! ...), written as names that must not appear in the files it names
//! (or outside one function of a file, or that must appear in one);
//! its message names the commit that made the decision.
//! Matching is on whitespace-folded text, so a call split across lines
//! is still caught, and every file, directory or function a rule names
//! must exist, so renaming one cannot switch its rule off. A needle is
//! literal text; a `\b` at either end asks for a word boundary there.
//!
//! The fixture tests at the bottom feed the same rules small trees
//! written under the test's scratch directory.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Whether `c` can be part of an identifier (`grep`'s word character).
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `text` with every whitespace run removed, except for one space where
/// the run separates two word characters, and the 1-based line in
/// `text` of each byte of the result.
fn fold(text: &str) -> (String, Vec<usize>) {
    let mut folded = String::with_capacity(text.len());
    let mut line_of = Vec::with_capacity(text.len());
    let (mut line, mut gap) = (1, false);
    for c in text.chars() {
        if c.is_whitespace() {
            line += usize::from(c == '\n');
            gap = true;
            continue;
        }
        if gap && is_word(c) && folded.chars().next_back().is_some_and(is_word) {
            folded.push(' ');
            line_of.push(line);
        }
        gap = false;
        folded.push(c);
        line_of.extend(std::iter::repeat_n(line, c.len_utf8()));
    }
    (folded, line_of)
}

/// A source file as the rules see it.
struct Source {
    /// Path relative to the scanned root, `/`-separated.
    path: String,
    text: String,
    folded: String,
    line_of: Vec<usize>,
}

impl Source {
    fn new(path: String, text: String) -> Self {
        let (folded, line_of) = fold(&text);
        Source {
            path,
            text,
            folded,
            line_of,
        }
    }

    /// The file up to its test module: everything before the first line
    /// that starts with `#[cfg(test)]`.
    fn before_tests(&self) -> Source {
        let mut cut = 0;
        for line in self.text.split_inclusive('\n') {
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            cut += line.len();
        }
        Source::new(self.path.clone(), self.text[..cut].to_string())
    }

    /// Byte offsets in `folded` where `needle` matches.
    fn matches(&self, needle: &str) -> Vec<usize> {
        let (needle, start) = match needle.strip_prefix(r"\b") {
            Some(rest) => (rest, true),
            None => (needle, false),
        };
        let (needle, end) = match needle.strip_suffix(r"\b") {
            Some(rest) => (rest, true),
            None => (needle, false),
        };
        let needle = fold(needle).0;
        assert!(!needle.is_empty(), "empty needle");
        let text = &self.folded;
        let mut found = Vec::new();
        let mut from = 0;
        while let Some(i) = text[from..].find(&needle) {
            let at = from + i;
            let after = at + needle.len();
            let starts = !start || !text[..at].chars().next_back().is_some_and(is_word);
            let ends = !end || !text[after..].chars().next().is_some_and(is_word);
            if starts && ends {
                found.push(at);
            }
            from = at + text[at..].chars().next().map_or(1, char::len_utf8);
        }
        found
    }

    /// The trimmed text of 1-based line `n`.
    fn line(&self, n: usize) -> &str {
        self.text.lines().nth(n - 1).unwrap_or("").trim()
    }
}

/// One rule's reading of a tree: the root it reads under and what it
/// found wrong, a missing path included.
struct Scan<'a> {
    root: &'a Path,
    problems: Vec<String>,
}

impl<'a> Scan<'a> {
    fn new(root: &'a Path) -> Self {
        Scan {
            root,
            problems: Vec::new(),
        }
    }

    fn missing(&mut self, rel: &str, what: &str) {
        self.problems.push(format!(
            "{rel}: named by the rule, but {what}; a renamed path takes its rule with it"
        ));
    }

    fn read(&mut self, rel: String) -> Option<Source> {
        match fs::read(self.root.join(&rel)) {
            Ok(bytes) => Some(Source::new(rel, String::from_utf8_lossy(&bytes).into())),
            Err(e) => {
                self.problems.push(format!("{rel}: cannot read: {e}"));
                None
            }
        }
    }

    /// The file at `rel`.
    fn file(&mut self, rel: &str) -> Vec<Source> {
        if !self.root.join(rel).is_file() {
            self.missing(rel, "no such file");
            return Vec::new();
        }
        self.read(rel.to_string()).into_iter().collect()
    }

    /// Entries of directory `rel`, sorted, as `(relative path, is dir)`.
    fn entries(&mut self, rel: &str) -> Vec<(String, bool)> {
        let Ok(dir) = fs::read_dir(self.root.join(rel)) else {
            self.missing(rel, "no such directory");
            return Vec::new();
        };
        let mut entries: Vec<(String, bool)> = dir
            .filter_map(Result::ok)
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (format!("{rel}/{name}"), e.path().is_dir())
            })
            .collect();
        entries.sort();
        entries
    }

    /// The `.rs` files directly in `rel` (`rel/*.rs`).
    fn rs_in(&mut self, rel: &str) -> Vec<Source> {
        let files: Vec<String> = self
            .entries(rel)
            .into_iter()
            .filter(|(path, is_dir)| !is_dir && path.ends_with(".rs"))
            .map(|(path, _)| path)
            .collect();
        if files.is_empty() {
            self.missing(&format!("{rel}/*.rs"), "it matches no file");
        }
        files.into_iter().filter_map(|p| self.read(p)).collect()
    }

    /// Every file under each of `rels`, or only the `.rs` ones.
    fn tree(&mut self, rels: &[&str], rs_only: bool) -> Vec<Source> {
        let mut files = Vec::new();
        for rel in rels {
            let before = files.len();
            let mut dirs = vec![rel.to_string()];
            while let Some(dir) = dirs.pop() {
                for (path, is_dir) in self.entries(&dir) {
                    if is_dir {
                        dirs.push(path);
                    } else if !rs_only || path.ends_with(".rs") {
                        files.push(path);
                    }
                }
            }
            if files.len() == before && self.root.join(rel).is_dir() {
                self.missing(rel, "it holds no file to scan");
            }
        }
        files.sort();
        files.into_iter().filter_map(|p| self.read(p)).collect()
    }

    /// The `src` directory of every crate under `crates/`
    /// (`crates/*/src`).
    fn crate_srcs(&mut self) -> Vec<String> {
        let srcs: Vec<String> = self
            .entries("crates")
            .into_iter()
            .filter(|(_, is_dir)| *is_dir)
            .map(|(path, _)| format!("{path}/src"))
            .filter(|src| self.root.join(src).is_dir())
            .collect();
        if srcs.is_empty() {
            self.missing("crates/*/src", "it matches no directory");
        }
        srcs
    }

    /// Records every match of any of `needles` in `sources`, except on a
    /// line that contains `exempt`.
    fn forbid_unless<'s>(
        &mut self,
        sources: impl IntoIterator<Item = &'s Source>,
        needles: &[&str],
        exempt: Option<&str>,
    ) {
        for source in sources {
            for needle in needles {
                let mut lines: Vec<usize> = source
                    .matches(needle)
                    .iter()
                    .map(|&at| source.line_of[at])
                    .collect();
                lines.dedup();
                for n in lines {
                    let line = source.line(n);
                    if exempt.is_some_and(|e| line.contains(e)) {
                        continue;
                    }
                    self.problems
                        .push(format!("{}:{n}: `{needle}` in: {line}", source.path));
                }
            }
        }
    }

    /// The byte range in `source.folded` of function `name`'s body,
    /// braces included; a problem when `source` defines no such function.
    fn body(&mut self, source: &Source, name: &str) -> Option<Range<usize>> {
        let text = &source.folded;
        let body = source
            .matches(&format!(r"\bfn {name}\b"))
            .first()
            .and_then(|&at| {
                let open = at + text[at..].find('{')?;
                let mut depth = 0usize;
                for (i, c) in text[open..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' if depth == 1 => return Some(open..open + i + 1),
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                None
            });
        if body.is_none() {
            self.problems.push(format!(
                "{}: named by the rule, but no `fn {name}` body; a renamed function takes its rule with it",
                source.path
            ));
        }
        body
    }

    /// Records every match of any of `needles` in `source` outside the
    /// body of function `name`.
    fn confine(&mut self, source: &Source, name: &str, needles: &[&str]) {
        let Some(body) = self.body(source, name) else {
            return;
        };
        for needle in needles {
            for at in source.matches(needle) {
                if !body.contains(&at) {
                    let n = source.line_of[at];
                    self.problems.push(format!(
                        "{}:{n}: `{needle}` outside fn {name} in: {}",
                        source.path,
                        source.line(n)
                    ));
                }
            }
        }
    }

    /// Records a problem unless the body of function `name` in `source`
    /// holds every one of `needles`.
    fn require_in(&mut self, source: &Source, name: &str, needles: &[&str]) {
        let Some(body) = self.body(source, name) else {
            return;
        };
        for needle in needles {
            if !source.matches(needle).iter().any(|at| body.contains(at)) {
                self.problems
                    .push(format!("{}: fn {name} has no `{needle}`", source.path));
            }
        }
    }

    /// Records every match of any of `needles` in `sources`.
    fn forbid<'s>(&mut self, sources: impl IntoIterator<Item = &'s Source>, needles: &[&str]) {
        self.forbid_unless(sources, needles, None);
    }

    /// Records a problem unless the public `run_*` functions in `sources`
    /// are exactly `want`.
    fn exactly_pub_run_fns(&mut self, sources: &[Source], want: &[&str]) {
        let mut found: Vec<String> = sources
            .iter()
            .flat_map(|s| {
                s.matches(r"\bpub fn run_").into_iter().map(move |at| {
                    let name = &s.folded[at + "pub fn ".len()..];
                    let len = name.find(|c| !is_word(c)).unwrap_or(name.len());
                    name[..len].to_string()
                })
            })
            .collect();
        found.sort();
        let mut want: Vec<&str> = want.to_vec();
        want.sort();
        if found != want {
            let files: Vec<&str> = sources.iter().map(|s| s.path.as_str()).collect();
            self.problems.push(format!(
                "public `run_*` functions in {files:?} are {found:?}, not exactly {want:?}"
            ));
        }
    }

    /// `Ok` when nothing was found, else `decision` and every problem.
    fn verdict(self, decision: &str) -> Result<(), String> {
        if self.problems.is_empty() {
            return Ok(());
        }
        Err(format!("{decision}\n  {}", self.problems.join("\n  ")))
    }
}

/// The rules. Each takes the root of a tree laid out like this
/// workspace; each `forbid*` or `exactly_pub_run_fns` call in it is one
/// check.
mod rules {
    use super::{Scan, Source};
    use std::path::Path;

    pub fn one_json_codec(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let sources = scan.tree(&["crates", "src"], true);
        scan.forbid(
            sources
                .iter()
                .filter(|s| s.path != "crates/obs/src/json.rs"),
            &[
                r"fn escape_json\b",
                r"fn json_str\b",
                r"fn json_f64\b",
                r"fn json_block\b",
                r"fn json_num\b",
                r"fn split_objects\b",
                r"fn parse_json\b",
            ],
        );
        scan.verdict(
            "one JSON codec (commit e2db161): JSON text is read and escaped only in \
             crates/obs/src/json.rs. A second escaper, substring scanner or parser \
             elsewhere is how the workspace once grew two parsers and three escapers.",
        )
    }

    pub fn one_event_fan_out(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let mut engines = scan.rs_in("crates/core/src/runtime");
        engines.extend(scan.file("crates/core/src/pipeline.rs"));
        let engines: Vec<_> = engines.iter().map(|s| s.before_tests()).collect();
        scan.forbid_unless(
            &engines,
            &[
                "journal().emit(",
                ".write_dump(",
                "record_watchdog_trip(",
                "status::",
                "\"naspipe: ",
                r"\bFlightRecorder\b",
                r"\bFlightEventKind\b",
                r"\bJournalLevel\b",
            ],
            Some("injected process kill"),
        );
        let core = scan.tree(&["crates/core/src"], true);
        scan.forbid(
            &core,
            &[
                ".set_phase(",
                ".set_total_subnets(",
                ".record_cut(",
                ".note_stage_watermark(",
                ".set_resume_watermark(",
                ".attach_flight(",
            ],
        );
        scan.verdict(
            "one event fan-out (commit a49db47): the engines reach the shared sinks (flight \
             ring, journal, hub trip counters, OpsState gauges, flight dumps, stderr) only \
             through crates/obs/src/bus.rs; emit a RunEvent instead. A sink written at a \
             call site is how one fact came to be coded once per sink and once per engine. \
             Checked up to each engine file's test module; a worker's last words before an \
             injected abort() are not a run event and stay a plain eprintln.",
        )
    }

    pub fn no_write_only_manifest(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let sources = scan.tree(&["crates", "src"], true);
        scan.forbid(
            &sources,
            &["MANIFEST_MAGIC", "write_manifest", "\"MANIFEST\""],
        );
        scan.verdict(
            "no write-only manifest (commit c046ddc): a snapshot directory's index is its \
             listing. v1 also fsync-renamed a MANIFEST per cut, re-reading every retained \
             snapshot to fill it in, and nothing ever read it; it must not come back.",
        )
    }

    pub fn one_way_to_start_a_run(root: &Path) -> Result<(), String> {
        const SHIMS: [&str; 4] = [
            r"\brun_threaded_diagnosed\b",
            r"\brun_pipeline_with_subnets\b",
            r"\brun_pipeline_with_tracer\b",
            r"\brun_pipeline_telemetry\b",
        ];
        let mut scan = Scan::new(root);
        let runtime = scan.rs_in("crates/core/src/runtime");
        scan.exactly_pub_run_fns(&runtime, &["run_threaded_diagnosed"]);
        let pipeline = scan.file("crates/core/src/pipeline.rs");
        scan.exactly_pub_run_fns(
            &pipeline,
            &[
                "run_pipeline_with_subnets",
                "run_pipeline_with_tracer",
                "run_pipeline_telemetry",
            ],
        );
        let sources = scan.tree(&["crates", "src", "tests", "examples"], true);
        scan.forbid(
            sources.iter().filter(|s| {
                !matches!(
                    s.path.as_str(),
                    "crates/core/src/runtime/mod.rs"
                        | "crates/core/src/pipeline.rs"
                        | "tests/end_to_end.rs"
                        // The rules' own text.
                        | "tests/structure.rs"
                )
            }),
            &SHIMS,
        );
        scan.verdict(
            "one way to start a run (commit b4a8bb0): a run starts through RunSpec::run \
             (threaded) or SimSpec::run (DES). The only other public run_* functions in the \
             engines are the four one-expression shims the frozen benchmark harness links \
             by name (ROADMAP 1(a)); nothing in the workspace may call them (a caller is \
             how ten entry points grew) except the one test in tests/end_to_end.rs that \
             proves each shim equals its spec.",
        )
    }

    pub fn flat_context_manager(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let context = scan.file("crates/core/src/context.rs");
        scan.forbid(&context, &["BTreeMap", "VecDeque", "HashMap", ".position("]);
        let sources = scan.tree(&["crates", "src"], true);
        scan.forbid(&sources, &["take_evictions"]);
        scan.verdict(
            "flat context manager (commit 2f820cf): every StageCache operation is O(1) on \
             dense slots and an intrusive LRU list, and allocates nothing in steady state. \
             The ordered maps, the deque with its linear `position` removal and the \
             per-task eviction log it replaced were most of a DES task's host time; the old \
             implementation lives on only as the reference model in \
             crates/core/tests/context_model.rs.",
        )
    }

    pub fn one_halt_path(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let runtime = scan.tree(&["crates/core/src/runtime"], false);
        scan.forbid(
            &runtime,
            &[
                r"enum Flow\b",
                r"enum WorkerExit\b",
                r"enum ExitNote\b",
                r"struct ExitGuard\b",
            ],
        );
        scan.forbid(&runtime, &["Arc::try_unwrap"]);
        scan.verdict(
            "one halt path (commit 63d6129): a stage worker leaves its loop early through \
             one type, Halt (parked by the supervisor, or failed), and hands its result \
             back over one channel. The four control types that spelled \"park\" five ways, \
             and the Arc-shared context that had to be unwrapped or cloned at the end, must \
             not come back.",
        )
    }

    pub fn ordered_span_store(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let trace = scan.file("crates/obs/src/trace.rs");
        scan.forbid(&trace, &[".iter().find("]);
        let critical_path = scan.file("crates/obs/src/critical_path.rs");
        scan.forbid(&critical_path, &["HashMap<SpanId"]);
        scan.verdict(
            "ordered span store (commit 2b2f593): a span is looked up through the trace's \
             own id index, built on the first lookup. A linear `get` (a scan of the whole \
             store per causal edge) made every consumer that follows edges quadratic, a \
             minute to export a 0.4 s simulation; and critical_path once hashed every span \
             into a private id -> span map instead.",
        )
    }

    pub fn evictions_are_not_spans(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let core = scan.tree(&["crates/core/src"], false);
        scan.forbid(&core, &["SpanKind::Evict"]);
        scan.verdict(
            "evictions are not spans (commit 6594868): a span is something that takes time. \
             An eviction takes none and happens only to make room for a swap-in, so the \
             engines count it on the Fetch / Prefetch span that forced it (Span::evicted). \
             Instant Evict marks were 46 % of a paper-scale trace, half its memory, and \
             read by no analyzer; the kind itself stays in obs so old trace files load.",
        )
    }

    pub fn one_counter_ledger(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let runtime = scan.rs_in("crates/core/src/runtime");
        scan.forbid(
            &runtime,
            &[
                "TeeRecorder",
                "MetricsRecorder",
                "TelemetrySampler",
                "naspipe-sampler",
            ],
        );
        scan.verdict(
            "one counter ledger (commit b0976a8): a threaded run counts once, into its \
             TelemetryHub: workers, the supervisor and the snapshot writer write its cells, \
             and the report is its final snapshot. A second copy of the counters (a \
             per-thread recorder teed beside the hub and merged after join) disagreed with \
             it after a fault, and the supervisor samples while it waits, so no thread \
             exists only to read them.",
        )
    }

    pub fn one_pricing_path(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let mut dirs = scan.crate_srcs();
        dirs.push("src".to_string());
        let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let sources = scan.tree(&dirs, true);
        scan.forbid(
            &sources,
            &[
                r"\bjitter\b",
                r"\bfault_rate\b",
                r"\bcompute_scale\b",
                r"\bslow_stage\b",
            ],
        );
        scan.verdict(
            "one pricing path (commit 28dc349): a DES task has one price, the catalog's, \
             through SimSpec::cost, the one hook that replaces or perturbs it (a slowed \
             stage, seeded noise, replayed measurements). Timing perturbations as config \
             fields (multipliers and noise knobs on PipelineConfig / DiagnosticsOptions \
             that one engine read, that priced the hoisted recompute another way, and that \
             only tests set) must not come back.",
        )
    }

    pub fn one_backward_decomposition(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let sources = scan.tree(&["crates", "src"], true);
        scan.forbid(
            sources.iter().filter(|s| {
                !matches!(
                    s.path.as_str(),
                    "crates/tensor/src/tensor.rs" | "crates/tensor/src/layers.rs"
                )
            }),
            &["tanh_grad_inplace("],
        );
        let layers = scan.file("crates/tensor/src/layers.rs");
        for layers in layers.iter().map(Source::before_tests) {
            scan.confine(
                &layers,
                "dense_backward_input",
                &["tanh_grad_inplace(", ".matmul_t("],
            );
            scan.confine(&layers, "dense_backward_weight", &[".t_matmul("]);
            scan.require_in(
                &layers,
                "dense_backward",
                &["dense_backward_input(", "dense_backward_weight("],
            );
        }
        let model = scan.file("crates/tensor/src/model.rs");
        for model in model.iter().map(Source::before_tests) {
            scan.confine(&model, "backward_slice_input", &["dense_backward_input("]);
            scan.confine(&model, "backward_slice_weight", &["dense_backward_weight("]);
            scan.require_in(
                &model,
                "backward_slice",
                &["backward_slice_input(", "backward_slice_weight("],
            );
        }
        let runtime = scan.tree(&["crates/core/src", "src"], true);
        scan.forbid(
            &runtime,
            &[
                r"\bdense_backward(",
                "dense_backward_input(",
                "dense_backward_weight(",
            ],
        );
        scan.verdict(
            "one backward decomposition (commit \"Shorten the threaded pipeline's causal \
             chain\"): a dense layer's backward is two halves in crates/tensor/src/layers.rs, \
             dense_backward_input (the tanh-gradient prologue and dL/dx = dz Wt + dL/dy, on \
             the weights the forward read) and dense_backward_weight (dL/dW = xt dz, reading \
             no weight), and dense_backward is their composition; a slice's backward is \
             likewise backward_slice_input and backward_slice_weight in \
             crates/tensor/src/model.rs, each the only caller of its layer half, and \
             backward_slice is their composition. The threaded stage worker runs the slice \
             halves apart, handing the gradient upstream between them; sequential_training \
             and replay run backward_slice. A second copy of the prologue, of either product \
             or of the per-layer walk is how those paths would stop being one.",
        )
    }

    pub fn one_parameter_fingerprint(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let mut dirs = scan.crate_srcs();
        dirs.push("src".to_string());
        let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let sources = scan.tree(&dirs, true);
        scan.forbid(
            sources.iter().filter(|s| {
                !matches!(
                    s.path.as_str(),
                    "crates/tensor/src/hash.rs"
                        // Kernel outputs, not parameters.
                        | "crates/bench/src/experiments/compute.rs"
                )
            }),
            &[
                r"\bBitHasher\b",
                "write_tensor(",
                "write_f32(",
                r"\bhash_tensors\b",
            ],
        );
        let runtime = scan.rs_in("crates/core/src/runtime");
        let runtime: Vec<_> = runtime.iter().map(Source::before_tests).collect();
        scan.forbid(&runtime, &[r"\bbitwise_hash"]);
        scan.verdict(
            "one parameter fingerprint (commit \"Fingerprint the parameters where they \
             live\"): a store's fingerprint is tensor::hash::store_hash over each layer's \
             tensor::hash::layer_hash, word-wise, in (block, choice) order, and the \
             optimizer's velocity is fingerprinted the same way. Only \
             crates/tensor/src/hash.rs folds f32 bits; the byte-serial BitHasher / \
             hash_tensors is for the compute benchmark's kernel outputs. The threaded \
             runtime makes no whole-store pass: each stage hashes its own slice on its own \
             thread and the supervisor folds the stages' layer hashes; a bitwise_hash there \
             is the 34 MB serial pass that was a tenth of a run's wall.",
        )
    }

    pub fn one_algorithm_2(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let runtime = scan.tree(&["crates/core/src/runtime"], false);
        scan.forbid(&runtime, &[r"fn admissible\b", "unfinished_below"]);
        scan.verdict(
            "one Algorithm 2 (commit 29904b1): both engines admit forwards through \
             scheduler::StageQueues::pick over CspScheduler::schedule. A private admission \
             check in the runtime (the arrival-order scan over \
             FinishedSet::unfinished_below it once had) let a higher ID run ahead of an \
             admissible lower one.",
        )
    }
}

fn holds(rule: fn(&Path) -> Result<(), String>) {
    if let Err(broken) = rule(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        panic!("{broken}");
    }
}

#[test]
fn one_json_codec() {
    holds(rules::one_json_codec);
}

#[test]
fn one_event_fan_out() {
    holds(rules::one_event_fan_out);
}

#[test]
fn no_write_only_manifest() {
    holds(rules::no_write_only_manifest);
}

#[test]
fn one_way_to_start_a_run() {
    holds(rules::one_way_to_start_a_run);
}

#[test]
fn flat_context_manager() {
    holds(rules::flat_context_manager);
}

#[test]
fn one_halt_path() {
    holds(rules::one_halt_path);
}

#[test]
fn ordered_span_store() {
    holds(rules::ordered_span_store);
}

#[test]
fn evictions_are_not_spans() {
    holds(rules::evictions_are_not_spans);
}

#[test]
fn one_counter_ledger() {
    holds(rules::one_counter_ledger);
}

#[test]
fn one_pricing_path() {
    holds(rules::one_pricing_path);
}

#[test]
fn one_algorithm_2() {
    holds(rules::one_algorithm_2);
}

#[test]
fn one_backward_decomposition() {
    holds(rules::one_backward_decomposition);
}

#[test]
fn one_parameter_fingerprint() {
    holds(rules::one_parameter_fingerprint);
}

/// A fresh tree holding `files` (relative path, contents), named after
/// the fixture so parallel tests do not share one.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("structure")
        .join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have a parent"))
            .expect("create fixture directory");
        fs::write(&path, text).expect("write fixture file");
    }
    root
}

#[test]
fn a_call_split_over_two_lines_is_still_the_call() {
    let root = fixture(
        "split_call",
        &[
            (
                "crates/obs/src/trace.rs",
                "fn get(&self, id: SpanId) -> Option<&Span> {\n    self.spans\n        .iter()\n        .find(|s| s.id == id)\n}\n",
            ),
            ("crates/obs/src/critical_path.rs", "use std::collections::HashMap;\n"),
        ],
    );
    let broken = rules::ordered_span_store(&root).unwrap_err();
    assert!(broken.contains("(commit 2b2f593)"), "{broken}");
    assert!(
        broken.contains("crates/obs/src/trace.rs:3: `.iter().find(`"),
        "{broken}"
    );
}

#[test]
fn a_rule_whose_file_is_missing_fails() {
    let root = fixture(
        "missing_file",
        &[
            ("crates/core/src/lib.rs", "pub mod cache;\n"),
            ("src/lib.rs", "pub use naspipe_core as core;\n"),
        ],
    );
    let broken = rules::flat_context_manager(&root).unwrap_err();
    assert!(
        broken.contains("crates/core/src/context.rs: named by the rule, but no such file"),
        "{broken}"
    );
}

#[test]
fn a_renamed_shim_fails_even_when_the_count_holds() {
    let pipeline = "pub fn run_pipeline_with_subnets() {}\n\
                    pub fn run_pipeline_with_tracer() {}\n\
                    pub fn run_pipeline_telemetry() {}\n";
    let files = |runtime| {
        [
            ("crates/core/src/runtime/mod.rs", runtime),
            ("crates/core/src/pipeline.rs", pipeline),
            ("src/lib.rs", ""),
            ("tests/end_to_end.rs", ""),
            ("examples/quickstart.rs", ""),
        ]
    };
    let root = fixture("shims", &files("pub fn run_threaded_diagnosed() {}\n"));
    rules::one_way_to_start_a_run(&root).expect("the four shims, uncalled");
    let root = fixture("renamed_shim", &files("pub fn run_threaded_traced() {}\n"));
    let broken = rules::one_way_to_start_a_run(&root).unwrap_err();
    assert!(broken.contains("[\"run_threaded_traced\"]"), "{broken}");
}

#[test]
fn the_fan_out_rule_stops_at_the_test_module() {
    let sink = "    naspipe_obs::journal().emit(event);\n";
    let tree = |runtime: &str| {
        fixture(
            "fan_out",
            &[
                ("crates/core/src/runtime/mod.rs", runtime),
                ("crates/core/src/pipeline.rs", "pub fn run() {}\n"),
            ],
        )
    };

    let after = format!("pub fn run() {{}}\n\n#[cfg(test)]\nmod tests {{\n{sink}}}\n");
    rules::one_event_fan_out(&tree(&after)).expect("a sink call in the test module is allowed");

    let kill = "fn die() {\n    eprintln!(\"naspipe: injected process kill at {stage}\");\n}\n";
    rules::one_event_fan_out(&tree(kill)).expect("the injected kill's last words are allowed");

    let before = format!("fn f() {{\n{sink}}}\n\n#[cfg(test)]\nmod tests {{}}\n");
    let broken = rules::one_event_fan_out(&tree(&before)).unwrap_err();
    assert!(
        broken.contains("crates/core/src/runtime/mod.rs:2: `journal().emit(`"),
        "{broken}"
    );
}

#[test]
fn a_backward_that_forks_its_halves_fails() {
    let halves = "pub fn dense_backward_input(p: &P, c: &mut C) -> T {\n    \
                  let db = c.t.tanh_grad_inplace(g, s);\n    c.t.matmul_t(&p.w)\n}\n\
                  pub fn dense_backward_weight(c: C, db: T) -> G {\n    c.x.t_matmul(&c.t)\n}\n";
    let model = "pub fn backward_slice(c: C) -> G {\n    \
                 backward_slice_input(&mut c);\n    backward_slice_weight(c)\n}\n\
                 pub fn backward_slice_input(c: &mut C) {\n    dense_backward_input(p, c);\n}\n\
                 pub fn backward_slice_weight(c: C) -> G {\n    dense_backward_weight(c, db)\n}\n";
    let tree = |backward: &str| {
        fixture(
            "backward",
            &[
                (
                    "crates/tensor/src/layers.rs",
                    &format!("{halves}{backward}"),
                ),
                ("crates/tensor/src/model.rs", model),
                ("crates/core/src/lib.rs", ""),
                ("src/lib.rs", ""),
            ],
        )
    };
    let composed = "pub fn dense_backward(p: &P, mut c: C) -> G {\n    \
                    let db = dense_backward_input(p, &mut c);\n    \
                    dense_backward_weight(c, db)\n}\n";
    rules::one_backward_decomposition(&tree(composed)).expect("the composition of the halves");
    let forked = "pub fn dense_backward(p: &P, mut c: C) -> G {\n    \
                  let db = c.t.tanh_grad_inplace(g, s);\n    \
                  dense_backward_weight(c, db)\n}\n";
    let broken = rules::one_backward_decomposition(&tree(forked)).unwrap_err();
    assert!(broken.contains("Shorten the threaded pipeline"), "{broken}");
    assert!(
        broken.contains(
            "crates/tensor/src/layers.rs:9: `tanh_grad_inplace(` outside fn dense_backward_input"
        ),
        "{broken}"
    );
    assert!(
        broken.contains("fn dense_backward has no `dense_backward_input(`"),
        "{broken}"
    );
}

#[test]
fn a_worker_that_walks_the_layer_halves_itself_fails() {
    let layers = "pub fn dense_backward_input() {\n    tanh_grad_inplace(); matmul_t();\n}\n\
                  pub fn dense_backward_weight() {\n    t_matmul();\n}\n\
                  pub fn dense_backward() {\n    \
                  dense_backward_input();\n    dense_backward_weight();\n}\n";
    let model = "pub fn backward_slice() {\n    \
                 backward_slice_input();\n    backward_slice_weight();\n}\n\
                 pub fn backward_slice_input() {\n    dense_backward_input();\n}\n\
                 pub fn backward_slice_weight() {\n    dense_backward_weight();\n}\n";
    let worker = "fn run_backward() {\n    \
                  for l in layers {\n        dense_backward_input(p, l);\n    }\n}\n";
    let root = fixture(
        "worker_walk",
        &[
            ("crates/tensor/src/layers.rs", layers),
            ("crates/tensor/src/model.rs", model),
            ("crates/core/src/runtime/worker.rs", worker),
            ("src/lib.rs", ""),
        ],
    );
    let broken = rules::one_backward_decomposition(&root).unwrap_err();
    assert!(
        broken.contains("crates/core/src/runtime/worker.rs:3"),
        "{broken}"
    );
}

#[test]
fn a_byte_serial_parameter_hash_or_a_whole_store_pass_fails() {
    let tree = |model: &str, supervisor: &str| {
        fixture(
            "fingerprint",
            &[
                ("crates/tensor/src/hash.rs", "pub struct BitHasher;\n"),
                ("crates/tensor/src/model.rs", model),
                ("crates/core/src/runtime/supervisor.rs", supervisor),
                ("src/lib.rs", ""),
            ],
        )
    };
    let folded = "fn assemble(outs: &[Out]) -> u64 {\n    \
                  store_hash(outs.iter().flat_map(|o| o.layer_hashes.iter().copied()))\n}\n\
                  #[cfg(test)]\nmod tests {\n    fn t() { store.bitwise_hash(); }\n}\n";
    let by_layer = "pub fn bitwise_hash(&self) -> u64 {\n    \
                    hash::store_hash(layer_hashes(&self.params))\n}\n";
    rules::one_parameter_fingerprint(&tree(by_layer, folded)).expect("the layer-wise fold");
    let serial = "pub fn bitwise_hash(&self) -> u64 {\n    \
                  let mut h = BitHasher::new();\n    for p in params {\n        \
                  h.write_tensor(&p.weight);\n    }\n    h.finish()\n}\n";
    let whole = "fn assemble(store: ParamStore) -> u64 {\n    store\n        .bitwise_hash()\n}\n";
    let broken = rules::one_parameter_fingerprint(&tree(serial, whole)).unwrap_err();
    assert!(broken.contains("Fingerprint the parameters"), "{broken}");
    for needle in [
        "crates/tensor/src/model.rs:2: `\\bBitHasher\\b`",
        "crates/tensor/src/model.rs:4: `write_tensor(`",
        "crates/core/src/runtime/supervisor.rs:3: `\\bbitwise_hash`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
}
