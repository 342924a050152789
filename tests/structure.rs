//! The workspace's structural rules, checked on its own sources.
//!
//! Each rule is a design decision an earlier change paid for (one JSON
//! codec, one event fan-out, one way to start a run, one stage core,
//! ...), written as names that must not appear in the files it names
//! (or outside one function of a file, or that must appear in one), or,
//! for the public surface, as a per-crate count of `pub` names that no
//! caller outside the crate names; its message names the commit that
//! made the decision.
//! Matching is on whitespace-folded text, so a call split across lines
//! is still caught, and every file, directory or function a rule names
//! must exist, so renaming one cannot switch its rule off. A needle is
//! literal text; a `\b` at either end asks for a word boundary there.
//!
//! The fixture tests at the bottom feed the same rules small trees
//! written under the test's scratch directory.

use std::collections::HashSet;
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
        self.item_body(source, "fn", name)
    }

    /// The byte range in `source.folded` of the body of the `keyword`
    /// item (`fn`, `struct`, ...) `name`, braces included; a problem when
    /// `source` defines no such item.
    fn item_body(&mut self, source: &Source, keyword: &str, name: &str) -> Option<Range<usize>> {
        let text = &source.folded;
        let body = source
            .matches(&format!(r"\b{keyword} {name}\b"))
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
                "{}: named by the rule, but no `{keyword} {name}` body; a renamed item takes its rule with it",
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

    /// Records every match of any of `needles` inside the body of the
    /// `keyword` item `name` in `source`.
    fn forbid_in(&mut self, source: &Source, keyword: &str, name: &str, needles: &[&str]) {
        let Some(body) = self.item_body(source, keyword, name) else {
            return;
        };
        for needle in needles {
            for at in source.matches(needle) {
                if body.contains(&at) {
                    let n = source.line_of[at];
                    self.problems.push(format!(
                        "{}:{n}: `{needle}` in {keyword} {name}: {}",
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

    /// Records a problem unless the string literals of `const {name}` in
    /// `source` are, in any order, exactly `want`.
    fn exactly_strings_in_const(&mut self, source: &Source, name: &str, want: &[&str]) {
        let text = &source.folded;
        let list = source
            .matches(&format!(r"\bconst {name}\b"))
            .first()
            .and_then(|&at| {
                let value = at + text[at..].find('=')?;
                let open = value + text[value..].find('[')?;
                let close = open + text[open..].find(']')?;
                Some(&text[open..close])
            });
        let Some(list) = list else {
            self.problems.push(format!(
                "{}: named by the rule, but no `const {name}` list; a renamed const takes its rule with it",
                source.path
            ));
            return;
        };
        let mut found: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
        found.sort_unstable();
        let mut want = want.to_vec();
        want.sort_unstable();
        if found != want {
            self.problems.push(format!(
                "{}: `{name}` is {found:?}, not exactly {want:?}",
                source.path
            ));
        }
    }

    /// The `.rs` files under `rel`, or none when `rel` is not a
    /// directory: for callers that a tree may not have.
    fn tree_if_present(&mut self, rel: &str) -> Vec<Source> {
        if self.root.join(rel).is_dir() {
            self.tree(&[rel], true)
        } else {
            Vec::new()
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

/// A `pub` item as declared: its kind (`fn`, `struct`, ...), its name
/// and `path:line`.
struct PubItem {
    kind: &'static str,
    name: String,
    at: String,
}

/// The `pub` fn, struct, enum, trait, type, const, static and mod items
/// `source` declares before its test module. `pub(crate)` and narrower
/// are not `pub`.
fn pub_items(source: &Source) -> Vec<PubItem> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let source = source.before_tests();
    let mut items = Vec::new();
    for at in source.matches(r"\bpub ") {
        let n = source.line_of[at];
        if source.line(n).starts_with("//") {
            continue;
        }
        let mut words = source.folded[at + "pub ".len()..]
            .split(|c: char| !is_word(c))
            .filter(|w| !w.is_empty())
            .peekable();
        let kind = loop {
            match words.next() {
                Some("unsafe" | "async") => {}
                Some("const") if matches!(words.peek(), Some(&("fn" | "unsafe" | "async"))) => {}
                Some(word) => break KINDS.into_iter().find(|&k| k == word),
                None => break None,
            }
        };
        let name = match words.next() {
            Some("mut") => words.next(),
            name => name,
        };
        if let (Some(kind), Some(name)) = (kind, name) {
            items.push(PubItem {
                kind,
                name: name.to_string(),
                at: format!("{}:{n}", source.path),
            });
        }
    }
    items
}

/// Adds to `names` every identifier `text` names in code: on lines that
/// are not comments, and in the doc examples rustdoc compiles (code
/// fences in `///` and `//!` comments). With `examples_only`, only in
/// the doc examples.
fn add_names(text: &str, examples_only: bool, names: &mut HashSet<String>) {
    // Inside a fence: whether rustdoc compiles it.
    let mut fence: Option<bool> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let doc = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"));
        let code = match (doc, fence) {
            (Some(doc), _) => match (doc.trim().strip_prefix("```"), fence) {
                (Some(info), None) => {
                    let compiled = info.is_empty()
                        || ["rust", "no_run", "should_panic"]
                            .iter()
                            .any(|k| info.contains(k));
                    fence = Some(compiled);
                    continue;
                }
                (Some(_), Some(_)) => {
                    fence = None;
                    continue;
                }
                (None, Some(true)) => doc,
                (None, _) => continue,
            },
            (None, _) if examples_only || trimmed.starts_with("//") => continue,
            (None, _) => line,
        };
        names.extend(
            code.split(|c: char| !is_word(c))
                .filter(|w| w.starts_with(|c: char| !c.is_ascii_digit()))
                .map(str::to_owned),
        );
    }
}

/// The rules. Each takes the root of a tree laid out like this
/// workspace; each `forbid*` or `exactly_pub_run_fns` call in it is one
/// check.
mod rules {
    use super::{add_names, pub_items, Scan, Source};
    use std::collections::HashSet;
    use std::path::Path;

    /// Per crate under `crates/`, how many of its `pub` names no caller
    /// outside it names: the types a `pub` signature needs (rustc's
    /// `private_interfaces` lint names them). A change that demotes or
    /// deletes one lowers its crate's count here.
    pub const UNNAMED_PUB: [(&str, usize); 7] = [
        ("obs", 20),
        ("core", 13),
        ("supernet", 4),
        ("tensor", 4),
        ("sim", 1),
        ("baselines", 1),
        ("bench", 26),
    ];

    pub fn every_pub_name_has_a_caller(root: &Path) -> Result<(), String> {
        unnamed_pub_names(root, &UNNAMED_PUB)
    }

    /// Checks each `(crate, count)` of `recorded`: the crate's `pub` names
    /// (in `crates/<crate>/src`, outside `src/bin`) that no outside caller
    /// names must number exactly `count`. An outside caller is any other
    /// crate under `crates/`, the root package's `src`, `tests` and
    /// `examples`, the crate's own `tests`, `benches` and `src/bin`, a doc
    /// example in its `src`, and the benchmark harness (`benchmark/src`,
    /// `benchmark/tests`).
    pub fn unnamed_pub_names(root: &Path, recorded: &[(&str, usize)]) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let crates: Vec<String> = scan
            .entries("crates")
            .into_iter()
            .filter(|(_, is_dir)| *is_dir)
            .map(|(path, _)| path)
            .collect();
        let mut shared = HashSet::new();
        for rel in [
            "src",
            "tests",
            "examples",
            "benchmark/src",
            "benchmark/tests",
        ] {
            for source in scan.tree_if_present(rel) {
                // The rules' own text.
                if source.path != "tests/structure.rs" {
                    add_names(&source.text, false, &mut shared);
                }
            }
        }
        let mut whole = Vec::new();
        for dir in &crates {
            let mut names = HashSet::new();
            for source in scan.tree_if_present(dir) {
                add_names(&source.text, false, &mut names);
            }
            whole.push(names);
        }
        for &(name, count) in recorded {
            let dir = format!("crates/{name}");
            let src = format!("{dir}/src");
            let bin = format!("{src}/bin");
            let mut outside = shared.clone();
            for (other, names) in crates.iter().zip(&whole) {
                if *other != dir {
                    outside.extend(names.iter().cloned());
                }
            }
            for rel in [
                format!("{dir}/tests"),
                format!("{dir}/benches"),
                bin.clone(),
            ] {
                for source in scan.tree_if_present(&rel) {
                    add_names(&source.text, false, &mut outside);
                }
            }
            let sources: Vec<Source> = scan
                .tree(&[&src], true)
                .into_iter()
                .filter(|s| !s.path.starts_with(&format!("{bin}/")))
                .collect();
            for source in &sources {
                add_names(&source.text, true, &mut outside);
            }
            let unnamed: Vec<String> = sources
                .iter()
                .flat_map(pub_items)
                .filter(|item| !outside.contains(&item.name))
                .map(|item| format!("pub {} {} ({})", item.kind, item.name, item.at))
                .collect();
            let found = unnamed.len();
            if found > count {
                scan.problems.push(format!(
                    "{src}: {found} `pub` names no outside caller names, {count} recorded; make \
                     the new one pub(crate) or delete it: {}",
                    unnamed.join(", ")
                ));
            } else if found < count {
                scan.problems.push(format!(
                    "{src}: {found} `pub` names no outside caller names, {count} recorded; \
                     lower the constant to {found}"
                ));
            }
        }
        scan.verdict(
            "every pub name has a caller (commit \"A public surface that is what callers \
             use\"): an item is `pub` only when something outside its crate names it (another \
             crate, the root package, the crate's own tests, benches or bins, a doc example, \
             the benchmark harness) or a `pub` signature needs it. rustc's dead_code lint \
             cannot see an unused `pub` item; a `pub(crate)` one it can, and clippy -D \
             warnings then fails on it.",
        )
    }

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
             tensor::hash::layer_hash, word-wise, in (block, choice) order. Only \
             crates/tensor/src/hash.rs folds f32 bits; the byte-serial BitHasher / \
             hash_tensors is for the compute benchmark's kernel outputs. The threaded \
             runtime makes no whole-store pass: each stage hashes its own slice on its own \
             thread and the supervisor folds the stages' layer hashes; a bitwise_hash there \
             is the 34 MB serial pass that was a tenth of a run's wall.",
        )
    }

    pub fn one_copy_in_obs(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let sources = scan.tree(&["crates/obs/src", "src"], true);
        let sources: Vec<_> = sources.iter().map(Source::before_tests).collect();
        scan.forbid(
            &sources,
            &[
                r"\bBusConfig\b",
                r"\bWatchdogConfig\b",
                "Transfer-Encoding",
                r"\bexplain_replay\b",
                r"\bfn gauge_value\b",
            ],
        );
        scan.verdict(
            "one copy in obs (obs keeps one copy of each thing it knows): the event bus is \
             built from DiagnosticsOptions itself, not a struct restating its fields; the \
             watchdog's thresholds are constants in crates/obs/src/watchdog.rs; /events is \
             one Content-Length body like every other route, so the client decodes no \
             chunks; a replay-gate failure is explained from its Divergence values beside \
             the type (GateReport::explain), not by filtering its rendered text; `top` reads \
             /metrics through expo::parse_exposition. A second copy is a second place to \
             drift: the text filter once missed every policy divergence.",
        )
    }

    pub fn one_stage_core(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let mut engines = scan.file("crates/core/src/pipeline.rs");
        engines.extend(scan.file("crates/core/src/runtime/worker.rs"));
        let engines: Vec<_> = engines.iter().map(Source::before_tests).collect();
        scan.forbid(
            &engines,
            &[
                r"\bCspScheduler\b",
                r"\bSubnetTable\b",
                r"\bFinishedSet\b",
                r"\bStageQueues\b",
                r"\bLastWriters\b",
                r"\bWriterDone\b",
                r"\bbwd_done\b",
                r"\bfn try_inject\b",
            ],
        );
        let runtime = scan.tree(&["crates/core/src/runtime"], false);
        scan.forbid(&runtime, &[r"fn admissible\b", "unfinished_below"]);
        scan.verdict(
            "one stage core (One stage core for both engines): the DES and the stage worker \
             drive one crate::stage::StageCore, which owns the subnet table, the queues, \
             the finished lists, the scheduler, injection and the writer marks; a second \
             copy of that bookkeeping in an engine is a second place for the two to \
             diverge. It holds one Algorithm 2 (commit \
             29904b1): forwards are admitted through StageCore::pick over \
             CspScheduler::schedule, and a private admission check in the runtime (the \
             arrival-order scan over FinishedSet::unfinished_below it once had) let a higher \
             ID run ahead of an admissible lower one.",
        )
    }

    /// The paper's evaluation (§5): the figures and tables `repro`
    /// regenerates.
    pub const PAPER: [&str; 10] = [
        "fig1", "table1", "fig4", "fig5", "table2", "table3", "table4", "table5", "fig6", "fig7",
    ];

    /// What `repro` adds to the paper: experiments that explain it further.
    pub const EXTRAS: [&str; 8] = [
        "cache",
        "soundness",
        "generation",
        "topology",
        "recompute",
        "obs",
        "trace",
        "bench",
    ];

    pub fn stage_worker_owns_no_channel(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        for worker in scan.file("crates/core/src/runtime/worker.rs") {
            let channels = [r"\bSender\b", r"\bReceiver\b", r"\bmpsc\b"];
            scan.forbid_in(&worker, "struct", "StageWorker", &channels);
        }
        scan.verdict(
            "the stage worker owns no channel (One stage worker, three drivers): \
             StageWorker::step takes what its driver delivers and gives it its hand-offs \
             through Io, so the thread driver, the one-thread replay of a recorded run \
             and the seeded test all drive the one worker. A channel inside the worker \
             puts its inbox back out of any driver's reach, and a threaded run can no \
             longer be replayed.",
        )
    }

    pub fn one_threaded_record(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let mut dirs = scan.crate_srcs();
        dirs.extend(["src".to_string(), "examples".to_string()]);
        let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        scan.file("crates/core/src/transcript.rs");
        let sources: Vec<Source> = (scan.tree(&dirs, true).iter())
            .filter(|s| {
                s.path != "crates/core/src/transcript.rs"
                    && !s.path.starts_with("crates/core/src/runtime/")
            })
            .map(Source::before_tests)
            .collect();
        scan.forbid(&sources, &[r"\bTranscript {"]);
        scan.verdict(
            "one threaded record (Every stage worker hands back its record on every exit): \
             a threaded run's transcript is built where the run ends, in \
             crates/core/src/runtime, once for a finished and a failed run alike, and \
             `Transcript::from(&SupervisedRun)` hands a finished one out. A copy assembled \
             from a run's fields elsewhere is how the failed run's record went missing.",
        )
    }

    /// Where a `CspChecker` may be built outside a test module: its own
    /// file, and the two engines that feed it events as they happen.
    pub const LIVE_CHECKERS: [&str; 3] = [
        "crates/obs/src/invariant.rs",
        "crates/core/src/pipeline.rs",
        "crates/core/src/runtime/worker.rs",
    ];

    pub fn one_csp_audit(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        for live in LIVE_CHECKERS {
            scan.file(live);
        }
        let mut dirs = scan.crate_srcs();
        dirs.extend(["src".to_string(), "examples".to_string()]);
        let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
        let sources: Vec<Source> = (scan.tree(&dirs, true).iter())
            .filter(|s| !LIVE_CHECKERS.contains(&s.path.as_str()))
            .map(Source::before_tests)
            .collect();
        scan.forbid(
            &sources,
            &[r"\bCspChecker::new\b", r"\bCspChecker::default\b"],
        );
        scan.verdict(
            "one CSP audit (One CSP audit of a finished run): a finished run's CSP order is \
             audited offline by repro::verify_csp_order{,_parts} alone, which places each \
             layer access where it takes effect (a read when its forward starts, a write \
             when its backward ends). The CspChecker runs live, inside the DES and the \
             stage worker. A second checker replaying a record in record order saw a read \
             that started before the write ended as in order: mirrored runs read layers up \
             to 830 us early and both offline checks passed.",
        )
    }

    /// The names that turn a task into its views: its ledger counts and
    /// latency samples, its compute spans and its flight-ring admission.
    pub const TASK_VIEWS: [&str; 8] = [
        r"\bCounter::ForwardTask\b",
        r"\bCounter::BackwardTask\b",
        r"\bSample::ForwardLatencyUs\b",
        r"\bSample::BackwardLatencyUs\b",
        r"\bSpanKind::Forward\b",
        r"\bSpanKind::Backward\b",
        r"\bSpanKind::Update\b",
        r"\bRunEvent::Admission\b",
    ];

    pub fn one_task_report(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let event = "crates/core/src/task.rs";
        scan.file(event);
        let sources: Vec<Source> = (scan.tree(&["crates/core/src"], true).iter())
            .filter(|s| s.path != event)
            .map(Source::before_tests)
            .collect();
        scan.forbid(&sources, &TASK_VIEWS);
        scan.verdict(
            "one task report (One TaskEvent per task): a task becomes its record, its \
             spans, its ledger counts and its flight-ring admission in \
             crates/core/src/task.rs alone, through the `TaskEvent` both engines drive. \
             The DES and the stage worker each encoded those views, about 130 lines a \
             side, and their span shapes and cause binding were described twice.",
        )
    }

    pub fn repro_reproduces_the_paper(root: &Path) -> Result<(), String> {
        let mut scan = Scan::new(root);
        let want: Vec<&str> = PAPER.iter().chain(&EXTRAS).copied().collect();
        for repro in scan.file("crates/bench/src/bin/repro.rs") {
            scan.exactly_strings_in_const(&repro, "EXPERIMENTS", &want);
        }
        // bench-check's gate reads compute's verdicts.
        let gate = "crates/bench/src/experiments/compute.rs";
        scan.file(gate);
        let experiments = scan.rs_in("crates/bench/src/experiments");
        let experiments = experiments.iter().filter(|s| s.path != gate);
        scan.forbid(experiments, &[r"\bfn all_ok\b", r"\bfn verdict("]);
        scan.verdict(
            "repro reproduces the paper (Verdicts are tests): `repro` runs the paper's figures \
             and tables and the experiments that explain them. A self-test is an assert in a \
             root tests/ file, which tier-1 runs; as a `repro` experiment with its own verdict \
             table it ran only when someone ran it.",
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
fn one_stage_core() {
    holds(rules::one_stage_core);
}

#[test]
fn stage_worker_owns_no_channel() {
    holds(rules::stage_worker_owns_no_channel);
}

#[test]
fn one_threaded_record() {
    holds(rules::one_threaded_record);
}

#[test]
fn one_backward_decomposition() {
    holds(rules::one_backward_decomposition);
}

#[test]
fn one_parameter_fingerprint() {
    holds(rules::one_parameter_fingerprint);
}

#[test]
fn one_copy_in_obs() {
    holds(rules::one_copy_in_obs);
}

#[test]
fn every_pub_name_has_a_caller() {
    holds(rules::every_pub_name_has_a_caller);
}

#[test]
fn one_csp_audit() {
    holds(rules::one_csp_audit);
}

#[test]
fn one_task_report() {
    holds(rules::one_task_report);
}

#[test]
fn repro_reproduces_the_paper() {
    holds(rules::repro_reproduces_the_paper);
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

#[test]
fn an_unnamed_pub_fn_fails_and_the_message_names_its_crate() {
    let root = fixture(
        "unnamed_pub",
        &[
            (
                "crates/sim/src/lib.rs",
                "pub fn used() {}\n// orphan is named only in this comment.\npub fn orphan() {}\n",
            ),
            (
                "crates/core/src/lib.rs",
                "fn f() {\n    naspipe_sim::used();\n}\n",
            ),
        ],
    );
    let broken = rules::unnamed_pub_names(&root, &[("sim", 0)]).unwrap_err();
    assert!(broken.contains("A public surface"), "{broken}");
    assert!(
        broken.contains("crates/sim/src: 1 `pub` names no outside caller names, 0 recorded"),
        "{broken}"
    );
    assert!(
        broken.contains("pub fn orphan (crates/sim/src/lib.rs:3)"),
        "{broken}"
    );
    assert!(!broken.contains("pub fn used"), "{broken}");
}

#[test]
fn a_pub_fn_named_by_another_crate_a_doc_example_or_a_bin_passes() {
    let lib = "pub fn used() {}\npub fn orphan() {}\n";
    let core = "fn f() {\n    naspipe_sim::used();\n}\n";
    let callers: [(&str, &[(&str, &str)]); 3] = [
        (
            "named_by_crate",
            &[
                ("crates/sim/src/lib.rs", lib),
                ("crates/core/tests/t.rs", "fn t() {\n    naspipe_sim::orphan();\n}\n"),
            ],
        ),
        (
            "named_by_doc_example",
            &[(
                "crates/sim/src/lib.rs",
                "/// ```\n/// naspipe_sim::orphan();\n/// ```\npub fn used() {}\npub fn orphan() {}\n",
            )],
        ),
        (
            "named_by_bin",
            &[
                ("crates/sim/src/lib.rs", lib),
                ("crates/sim/src/bin/tool.rs", "fn main() {\n    naspipe_sim::orphan();\n}\n"),
            ],
        ),
    ];
    for (name, files) in callers {
        let mut files = files.to_vec();
        files.push(("crates/core/src/lib.rs", core));
        let root = fixture(name, &files);
        rules::unnamed_pub_names(&root, &[("sim", 0)]).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let prose =
        "/// ```text\n/// naspipe_sim::orphan();\n/// ```\npub fn used() {}\npub fn orphan() {}\n";
    let root = fixture(
        "named_by_text_block",
        &[
            ("crates/sim/src/lib.rs", prose),
            ("crates/core/src/lib.rs", core),
        ],
    );
    let broken = rules::unnamed_pub_names(&root, &[("sim", 0)]).unwrap_err();
    assert!(broken.contains("pub fn orphan"), "{broken}");
}

#[test]
fn a_count_below_its_constant_asks_to_lower_it() {
    let root = fixture(
        "lower_the_constant",
        &[
            (
                "crates/sim/src/lib.rs",
                "pub fn used() {}\npub(crate) fn inner() {}\n",
            ),
            (
                "crates/core/src/lib.rs",
                "fn f() {\n    naspipe_sim::used();\n}\n",
            ),
        ],
    );
    let broken = rules::unnamed_pub_names(&root, &[("sim", 1)]).unwrap_err();
    assert!(
        broken.contains(
            "crates/sim/src: 0 `pub` names no outside caller names, 1 recorded; lower the constant to 0"
        ),
        "{broken}"
    );
}

#[test]
fn a_private_copy_of_the_stage_bookkeeping_fails() {
    let tree = |pipeline: &str, worker: &str| {
        fixture(
            "stage_core",
            &[
                ("crates/core/src/pipeline.rs", pipeline),
                ("crates/core/src/runtime/worker.rs", worker),
            ],
        )
    };
    let tests = "#[cfg(test)]\nmod tests {\n    fn t(t: &SubnetTable) {}\n}\n";
    let driven = format!("fn inject(core: &mut StageCore) {{}}\n{tests}");
    rules::one_stage_core(&tree(&driven, &driven)).expect("an engine that calls the core");
    let copy = "struct WriterDone;\nfn try_inject(&mut self) {\n    self.table.insert(x);\n}\n";
    let check = "fn admissible(y: u64,\n    finished: &[FinishedSet]) -> bool {\n    true\n}\n";
    let broken = rules::one_stage_core(&tree(copy, &format!("{check}{tests}"))).unwrap_err();
    assert!(
        broken.contains("One stage core for both engines"),
        "{broken}"
    );
    for needle in [
        "crates/core/src/pipeline.rs:1: `\\bWriterDone\\b`",
        "crates/core/src/pipeline.rs:2: `\\bfn try_inject\\b`",
        "crates/core/src/runtime/worker.rs:1: `fn admissible\\b`",
        "crates/core/src/runtime/worker.rs:2: `\\bFinishedSet\\b`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
    assert!(!broken.contains("SubnetTable"), "{broken}");
}

#[test]
fn a_stage_worker_holding_a_channel_fails() {
    let tree = |worker: &str| {
        fixture(
            "worker_channel",
            &[("crates/core/src/runtime/worker.rs", worker)],
        )
    };
    let driven = "use std::sync::mpsc::Sender;\nstruct Link { tx: Sender<Msg> }\n\
                  pub(super) struct StageWorker<'a> {\n    core: Core<'a>,\n}\n";
    rules::stage_worker_owns_no_channel(&tree(driven)).expect("a channel outside the worker");
    let owning = "pub(super) struct StageWorker<'a> {\n    core: Core<'a>,\n    \
                  rx: std::sync::mpsc::Receiver<Msg>,\n}\n";
    let broken = rules::stage_worker_owns_no_channel(&tree(owning)).unwrap_err();
    for needle in ["worker.rs:3: `\\bReceiver\\b`", "worker.rs:3: `\\bmpsc\\b`"] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
    let gone = rules::stage_worker_owns_no_channel(&tree("struct Worker;\n")).unwrap_err();
    assert!(gone.contains("no `struct StageWorker` body"), "{gone}");
}

#[test]
fn a_second_copy_in_obs_fails() {
    let tree = |ops: &str, main: &str| {
        fixture(
            "obs_copy",
            &[("crates/obs/src/ops.rs", ops), ("src/main.rs", main)],
        )
    };
    let tests = "#[cfg(test)]\nmod tests {\n    // Transfer-Encoding: chunked\n}\n";
    let ops = format!("fn serve() {{\n    respond(body);\n}}\n{tests}");
    let main = "fn explain(r: &GateReport) {\n    r.explain();\n}\n";
    rules::one_copy_in_obs(&tree(&ops, main)).expect("a test that names the header");
    let copy = "fn gauge_value(m: &str) {}\nconst H: &str = \"Transfer-Encoding: chunked\";\n";
    let call = "fn explain(r: &str) {\n    naspipe::obs::explain_replay(r);\n}\n";
    let broken = rules::one_copy_in_obs(&tree(copy, call)).unwrap_err();
    assert!(broken.contains("obs keeps one copy"), "{broken}");
    for needle in [
        "crates/obs/src/ops.rs:1: `\\bfn gauge_value\\b`",
        "crates/obs/src/ops.rs:2: `Transfer-Encoding`",
        "src/main.rs:2: `\\bexplain_replay\\b`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
}

#[test]
fn a_self_test_experiment_in_repro_fails() {
    let experiments = |extra: &str| {
        let names = rules::PAPER.iter().chain(&rules::EXTRAS).chain([&extra]);
        let names: Vec<String> = names.map(|n| format!("    \"{n}\",\n")).collect();
        format!("const EXPERIMENTS: &[&str] = &[\n{}];\n", names.concat())
    };
    let gate = "pub fn all_ok(&self) -> bool {\n    true\n}\nfn verdict(ok: bool) {}\n";
    let tree = |name: &str, repro: &str, faults: &str| {
        fixture(
            name,
            &[
                ("crates/bench/src/bin/repro.rs", repro),
                ("crates/bench/src/experiments/compute.rs", gate),
                ("crates/bench/src/experiments/faults.rs", faults),
            ],
        )
    };
    let paper = experiments("all").replace("    \"all\",\n", "");
    let root = tree("repro_paper", &paper, "pub fn run() {}\n");
    rules::repro_reproduces_the_paper(&root).expect("the paper, its extras, compute's gate");

    let self_test = "pub fn all_ok(&self) -> bool {\n    true\n}\n\
                     fn verdict(ok: bool) -> &'static str {\n    \"ok\"\n}\n";
    let root = tree("repro_self_test", &experiments("faults"), self_test);
    let broken = rules::repro_reproduces_the_paper(&root).unwrap_err();
    assert!(broken.contains("Verdicts are tests"), "{broken}");
    for needle in [
        "crates/bench/src/bin/repro.rs: `EXPERIMENTS` is",
        "\"faults\"",
        "crates/bench/src/experiments/faults.rs:1: `\\bfn all_ok\\b`",
        "crates/bench/src/experiments/faults.rs:4: `\\bfn verdict(`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
    assert!(!broken.contains("compute.rs"), "{broken}");
}

#[test]
fn a_transcript_assembled_outside_the_runtime_fails() {
    let tree = |name: &str, gate: &str| {
        fixture(
            name,
            &[
                ("crates/core/src/transcript.rs", "pub struct Transcript {\n    tasks: T,\n}\n"),
                (
                    "crates/core/src/runtime/mod.rs",
                    "impl From<&SupervisedRun> for Transcript {\n    fn from(r: &SupervisedRun) -> Self {\n        Transcript { tasks: r.tasks.clone() }\n    }\n}\n",
                ),
                ("crates/core/src/replay_gate.rs", gate),
                ("src/main.rs", "fn main() {}\n"),
                ("examples/demo.rs", "fn main() {}\n"),
            ],
        )
    };
    let tests = "#[cfg(test)]\nmod tests {\n    fn t() { Transcript { tasks: Vec::new() }; }\n}\n";
    let from =
        format!("fn execute(run: &SupervisedRun) {{\n    Transcript::from(run);\n}}\n{tests}");
    rules::one_threaded_record(&tree("one_record", &from)).expect("the runtime's one constructor");
    let copy = "fn execute(run: SupervisedRun) {\n    let t = Transcript {\n        tasks: run.tasks,\n    };\n}\n";
    let broken = rules::one_threaded_record(&tree("record_copy", copy)).unwrap_err();
    assert!(broken.contains("one threaded record"), "{broken}");
    assert!(
        broken.contains("crates/core/src/replay_gate.rs:2: `\\bTranscript {`"),
        "{broken}"
    );
    assert!(!broken.contains("runtime/mod.rs"), "{broken}");
}

#[test]
fn a_second_offline_checker_replay_fails() {
    let tree = |name: &str, gate: &str| {
        let live = "fn engine() {\n    let checker = CspChecker::new();\n}\n";
        let mut files: Vec<(&str, &str)> =
            rules::LIVE_CHECKERS.iter().map(|&f| (f, live)).collect();
        files.extend([
            ("crates/core/src/replay_gate.rs", gate),
            ("src/main.rs", "fn main() {}\n"),
            ("examples/demo.rs", "fn main() {}\n"),
        ]);
        fixture(name, &files)
    };
    let tests = "#[cfg(test)]\nmod tests {\n    fn t() { CspChecker::new(); }\n}\n";
    let audit = format!("fn audit(t: &Transcript) {{\n    verify_csp_order_parts(t);\n}}\n{tests}");
    rules::one_csp_audit(&tree("one_audit", &audit)).expect("live checkers and a test's");
    let replay = "fn check_csp_stream(tasks: &[TaskRecord]) {\n    let mut checker =\n        CspChecker::new();\n    let other = CspChecker::default();\n}\n";
    let broken = rules::one_csp_audit(&tree("checker_replay", replay)).unwrap_err();
    assert!(
        broken.contains("One CSP audit of a finished run"),
        "{broken}"
    );
    for needle in [
        "crates/core/src/replay_gate.rs:3: `\\bCspChecker::new\\b`",
        "crates/core/src/replay_gate.rs:4: `\\bCspChecker::default\\b`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
    assert!(!broken.contains("pipeline.rs"), "{broken}");
}

#[test]
fn a_second_task_report_site_fails() {
    let tree = |name: &str, engine: &str| {
        let event = "fn close(self) {\n    ledger.incr(stage, Counter::ForwardTask, 1);\n    tracer.emit(draft(SpanKind::Update));\n}\n";
        fixture(
            name,
            &[
                ("crates/core/src/task.rs", event),
                ("crates/core/src/pipeline.rs", engine),
            ],
        )
    };
    let tests = "#[cfg(test)]\nmod tests {\n    fn t() { of_kind(SpanKind::Forward); }\n}\n";
    let driven = format!("fn run_task() {{\n    event.close(tracer, ledger, update);\n}}\n{tests}");
    rules::one_task_report(&tree("one_report", &driven)).expect("the event's file and a test");
    let second = "fn run_task() {\n    bus.emit(k, now, RunEvent::Admission { subnet });\n    tracer.emit(SpanDraft::new(k,\n        SpanKind::Update, mid, end));\n}\n";
    let broken = rules::one_task_report(&tree("second_report", second)).unwrap_err();
    assert!(broken.contains("One TaskEvent per task"), "{broken}");
    for needle in [
        "crates/core/src/pipeline.rs:2: `\\bRunEvent::Admission\\b`",
        "crates/core/src/pipeline.rs:4: `\\bSpanKind::Update\\b`",
    ] {
        assert!(broken.contains(needle), "{needle} in {broken}");
    }
    assert!(!broken.contains("src/task.rs:"), "{broken}");
}
