//! Workload inputs: generated corpora written to disk, the merged checker
//! spec that lets one `mcheck` invocation cover several protocols, and
//! seeded body-only edits.
//!
//! Everything here is a pure function of the seed, so the same seed gives
//! byte-identical files.

use mc_checkers::flash::FlashSpec;
use mc_corpus::rng::CorpusRng;
use mc_corpus::Protocol;
use std::path::{Path, PathBuf};

/// A generated corpus on disk: `<root>/<protocol>/<file>.c` plus one
/// merged `<root>/spec.json`.
pub struct Corpus {
    /// The protocols with their manifests.
    pub protocols: Vec<Protocol>,
    /// Every source file, in protocol then file order.
    pub files: Vec<PathBuf>,
    /// The merged spec file.
    pub spec: PathBuf,
}

impl Corpus {
    /// Writes `protocols` under `root` (created if missing).
    pub fn write(root: &Path, protocols: Vec<Protocol>) -> std::io::Result<Corpus> {
        let mut files = Vec::new();
        for proto in &protocols {
            let dir = root.join(&proto.name);
            std::fs::create_dir_all(&dir)?;
            for f in &proto.files {
                let path = dir.join(&f.name);
                std::fs::write(&path, &f.source)?;
                files.push(path);
            }
        }
        let spec = root.join("spec.json");
        std::fs::write(&spec, mc_json::to_string_pretty(&merged_spec(&protocols)))?;
        Ok(Corpus {
            protocols,
            files,
            spec,
        })
    }

    /// The original bytes of file `i`.
    pub fn source(&self, i: usize) -> &str {
        let mut k = i;
        for proto in &self.protocols {
            if k < proto.files.len() {
                return &proto.files[k].source;
            }
            k -= proto.files.len();
        }
        panic!("file index {i} out of range");
    }

    /// Total function definitions across the corpus.
    pub fn functions(&self) -> usize {
        (0..self.files.len())
            .map(|i| function_closers(self.source(i)).len())
            .sum()
    }
}

/// The protocols of the seed corpus named in `names` (all when empty).
pub fn seed_protocols(seed: u64, names: &[&str]) -> Vec<Protocol> {
    mc_corpus::generate_all(seed)
        .into_iter()
        .filter(|p| names.is_empty() || names.contains(&p.name.as_str()))
        .collect()
}

/// One spec covering every protocol: the union of their handler sets,
/// routine tables and lane quotas. Protocols name their handlers and
/// routines distinctly, so a single `mcheck --spec` run over all of them
/// reports exactly what per-protocol runs report.
pub fn merged_spec(protocols: &[Protocol]) -> FlashSpec {
    let mut spec = FlashSpec::new();
    for (i, p) in protocols.iter().enumerate() {
        let s = &p.spec;
        if i == 0 {
            spec.default_quota = s.default_quota;
        }
        spec.hardware_handlers
            .extend(s.hardware_handlers.iter().cloned());
        spec.software_handlers
            .extend(s.software_handlers.iter().cloned());
        for (k, v) in &s.lane_quota {
            spec.lane_quota.entry(k.clone()).or_insert(*v);
        }
        spec.free_routines.extend(s.free_routines.iter().cloned());
        spec.use_routines.extend(s.use_routines.iter().cloned());
        spec.cond_free_routines
            .extend(s.cond_free_routines.iter().cloned());
        spec.writeback_routines
            .extend(s.writeback_routines.iter().cloned());
    }
    spec
}

/// 0-based line indexes of every function's closing brace: in the
/// generated sources a definition ends with a line holding only `}`.
fn function_closers(src: &str) -> Vec<usize> {
    let mut closers = Vec::new();
    let mut in_fn = false;
    for (i, line) in src.lines().enumerate() {
        if line == "{" {
            in_fn = true;
        } else if line == "}" && in_fn {
            closers.push(i);
            in_fn = false;
        }
    }
    closers
}

/// A body-only edit of one function: a fresh local declaration placed on
/// the line of the function's closing brace. No line moves, so every
/// other function keeps its spans and fingerprints; the edited function's
/// signature is untouched and its body fingerprint changes with `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edit {
    /// Index into [`Corpus::files`].
    pub file: usize,
    /// 0-based line of the closing brace.
    pub line: usize,
    /// Distinguishes edits of the same function from one another.
    pub tag: u64,
}

impl Edit {
    /// A seeded edit among the functions of `candidates` (file indexes).
    pub fn pick(corpus: &Corpus, candidates: &[usize], rng: &mut CorpusRng, tag: u64) -> Edit {
        let sites: Vec<(usize, usize)> = candidates
            .iter()
            .flat_map(|&f| {
                function_closers(corpus.source(f))
                    .into_iter()
                    .map(move |l| (f, l))
            })
            .collect();
        assert!(!sites.is_empty(), "no function to edit");
        let (file, line) = sites[(rng.next_u64() % sites.len() as u64) as usize];
        Edit { file, line, tag }
    }

    /// The edited bytes of the file.
    pub fn apply(&self, corpus: &Corpus) -> String {
        let src = corpus.source(self.file);
        let mut out = String::with_capacity(src.len() + 40);
        for (i, line) in src.split_inclusive('\n').enumerate() {
            if i == self.line {
                out.push_str(&format!("    int mcbench_edit = {}; ", self.tag));
            }
            out.push_str(line);
        }
        out
    }

    /// Writes the edited file.
    pub fn write(&self, corpus: &Corpus) -> std::io::Result<()> {
        std::fs::write(&corpus.files[self.file], self.apply(corpus))
    }

    /// Restores the file's original bytes.
    pub fn revert(&self, corpus: &Corpus) -> std::io::Result<()> {
        std::fs::write(&corpus.files[self.file], corpus.source(self.file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::Fingerprint;

    #[test]
    fn same_seed_gives_identical_bytes() {
        let a = seed_protocols(7, &["sci"]);
        let b = seed_protocols(7, &["sci"]);
        let c = seed_protocols(8, &["sci"]);
        let bytes = |ps: &[Protocol]| -> Vec<String> {
            ps.iter()
                .flat_map(|p| p.files.iter().map(|f| f.source.clone()))
                .chain(std::iter::once(mc_json::to_string(&merged_spec(ps))))
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        let fleet = |seed| bytes(&mc_corpus::generate_fleet(seed, 2));
        assert_eq!(fleet(7), fleet(7));
    }

    #[test]
    fn same_seed_gives_the_same_edits() {
        let dir = std::env::temp_dir().join(format!("perfbench-edits-{}", std::process::id()));
        let corpus = Corpus::write(&dir, seed_protocols(3, &["sci"])).unwrap();
        let all: Vec<usize> = (0..corpus.files.len()).collect();
        let picks = |seed| {
            let mut rng = CorpusRng::seed_from_u64(seed);
            (1..6)
                .map(|tag| Edit::pick(&corpus, &all, &mut rng, tag).apply(&corpus))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edit_changes_one_body_and_no_signature() {
        let dir = std::env::temp_dir().join(format!("perfbench-edit-{}", std::process::id()));
        let corpus = Corpus::write(&dir, seed_protocols(3, &["dyn_ptr"])).unwrap();
        let mut rng = CorpusRng::seed_from_u64(3);
        let edit = Edit::pick(&corpus, &[0, 1, 2], &mut rng, 42);
        let before = mc_ast::parse_translation_unit(corpus.source(edit.file), "f.c").unwrap();
        let after = mc_ast::parse_translation_unit(&edit.apply(&corpus), "f.c").unwrap();
        let fps = |u: &mc_ast::TranslationUnit| -> Vec<_> {
            u.functions().map(Fingerprint::of_function).collect()
        };
        let (b, a) = (fps(&before), fps(&after));
        assert_eq!(b.len(), a.len());
        let changed: Vec<usize> = (0..b.len()).filter(|&i| b[i] != a[i]).collect();
        assert_eq!(changed.len(), 1, "exactly one function changes");
        assert_eq!(b[changed[0]].sig, a[changed[0]].sig, "signature kept");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
