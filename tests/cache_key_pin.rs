//! Pins the result-cache key of one request of every analysis kind.
//!
//! The key is the SHA-256 of the request's canonical form, and it names
//! the entry files of a `--cache-dir` persistent tier. A change to how
//! requests are decoded or keyed must leave these digests alone, or every
//! warm cache directory goes cold after an upgrade (and the optimize key
//! mirrored by `perfbench/src/trace.rs` drifts). Each pinned request sets
//! every optional knob; two more set none. The digests are read back from
//! the disk tier's file names, so the test goes through the public
//! serving path only.

use std::path::PathBuf;

use redeval::scenario::builtin;
use redeval_server::Request;

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "redeval-cache-key-pin-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cache key under which a fresh served request stores its answer.
fn stored_key(tag: &str, path: &str, body: &str) -> String {
    let scratch = Scratch::new(tag);
    let service = redeval_bench::serve::service_with_disk(1, 1 << 20, &scratch.0, 1 << 24)
        .expect("open the cache dir");
    let response = service.handle(&Request::synthetic("POST", path, body.as_bytes()));
    assert_eq!(
        response.status,
        200,
        "{path}: {}",
        String::from_utf8_lossy(&response.body)
    );
    let stems: Vec<String> = std::fs::read_dir(&scratch.0)
        .expect("read the cache dir")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let (stem, _ext) = name.split_once('.')?;
            (stem.len() == 64).then(|| stem.to_string())
        })
        .collect();
    assert_eq!(stems.len(), 1, "{path}: expected one entry, got {stems:?}");
    stems[0].clone()
}

#[test]
fn cache_keys_of_every_request_kind_are_pinned() {
    let doc = builtin::paper_case_study().to_json();
    let doc = doc.trim_end();
    let cases = [
        (
            "eval",
            "/v1/eval",
            doc.to_string(),
            "25a04e3d817438b56c6b2e502f59a4aa18f241885007a6cfa38f081b4c738397",
        ),
        (
            "sweep",
            "/v1/sweep",
            format!(
                "{{\"scenario\": {doc}, \"patch_windows_days\": [7, 30.5], \
                 \"policies\": [\"all\", \"critical>8\"], \"max_redundancy\": 2}}"
            ),
            "d673afe0815d4554046eb4ad15d33b0504bd83fd7c0433fc239bbe664a6e7d3a",
        ),
        (
            "sweep_bare",
            "/v1/sweep",
            format!("{{\"scenario\": {doc}}}"),
            "def953758e5b276174da25ca83a3dadac48da26e3731564ac1e1f15987c5bb6f",
        ),
        (
            "optimize",
            "/v1/optimize",
            format!(
                "{{\"scenario\": {doc}, \"policies\": [\"none\", \"all\"], \
                 \"max_redundancy\": 2, \
                 \"bounds\": {{\"max_asp\": 0.2, \"min_coa\": 0.9962}}}}"
            ),
            "31c251d9b9e6fe0ce67c00b69ab0da9ad0db4d62674ccd72d84bd933ca48446d",
        ),
        (
            "equilibrium",
            "/v1/equilibrium",
            format!(
                "{{\"scenario\": {doc}, \"policies\": [\"all\"], \
                 \"max_redundancy\": 2, \"max_iters\": 4}}"
            ),
            "95e767bab5d0ac06e923b512a25ac2b04d7370f095032b519842839f7a8af60a",
        ),
        (
            "generate",
            "/v1/generate",
            "{\"family\": \"iot_swarm\", \"seed\": 9, \"tiers\": 6, \
             \"redundancy\": 2, \"designs\": 1, \"policies\": 3}"
                .to_string(),
            "21613e4c57f1b6dd1884a64be64b1b9b622d928c457c4cfe2f082b7ca5e0a0f7",
        ),
        (
            "generate_bare",
            "/v1/generate",
            "{\"family\": \"microservice_mesh\"}".to_string(),
            "aafe3c54d691d783460690e2fea168139c607a3ad40bc3ac356aad2253fb602c",
        ),
    ];
    let mut wrong = Vec::new();
    for (tag, path, body, pinned) in &cases {
        let key = stored_key(tag, path, body);
        if key != *pinned {
            wrong.push(format!("{tag}: pinned {pinned}, got {key}"));
        }
    }
    assert!(wrong.is_empty(), "cache keys moved:\n{}", wrong.join("\n"));
}
