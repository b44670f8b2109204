//! Deterministic fault injection — named failpoints armed via the
//! `MSPGEMM_FAILPOINTS` environment variable.
//!
//! Production SpGEMM services must degrade rather than crash when a tile
//! kernel misbehaves (a hostile input, an accumulator invariant break, a
//! bug in a new kernel). To *test* that degradation path reproducibly,
//! library code is instrumented with named failpoint sites:
//!
//! | site | fires in |
//! |---|---|
//! | [`TILE_KERNEL`] | the parallel tile body of the masked-SpGEMM driver |
//! | [`ACCUM_RESET`] | the accumulators' per-row reset path |
//! | [`FRAGMENT_STITCH`] | the driver's per-tile output compaction |
//! | [`WORK_ESTIMATE`] | each Eq. 2 work estimate of the symbolic prologue |
//!
//! # Spec grammar
//!
//! ```text
//! MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.05,seed:42;accum-reset=delay@ms:2'
//!
//! spec   := entry (';' entry)*
//! entry  := site '=' action ['@' param (',' param)*]
//! action := 'panic' | 'delay' | 'off'
//! param  := 'p:' f64 in [0,1]   (fire probability, default 1.0)
//!         | 'seed:' u64         (Bernoulli stream seed, default 0)
//!         | 'ms:' u64           (delay duration, default 1)
//!         | 'key:' u64          (fire only for this call key, default any)
//! ```
//!
//! `delay` injects latency, from scheduling jitter to a tile that runs far
//! past its siblings. It is keyed by the same deterministic Bernoulli
//! stream as `panic`.
//!
//! # Determinism
//!
//! Whether a site fires is a **pure function of `(seed, key, p)`** — the
//! call key (e.g. the tile index) is mixed into the seed and one draw is
//! taken from the in-tree [`ChaCha8Rng`] stream. Injection is therefore
//! bit-reproducible across runs and independent of thread interleaving:
//! the same tiles fail no matter which worker claims them.
//!
//! # Cost when unarmed
//!
//! The registry lives in a `static OnceLock<Option<Registry>>` initialised
//! from the environment on first touch. With the variable unset,
//! [`maybe_fire`] compiles to a load of the cached `Option` and a single
//! predictable branch — benches are unaffected.

use crate::rng::{ChaCha8Rng, Rng, SplitMix64};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Site inside the parallel tile body of the masked-SpGEMM driver; the
/// call key is the tile index.
pub const TILE_KERNEL: &str = "tile-kernel";
/// Site inside the accumulators' per-row reset path; the call key is the
/// accumulator's current epoch.
pub const ACCUM_RESET: &str = "accum-reset";
/// Site inside the driver's output compaction, fired as each tile's rows
/// are copied out of their slack-padded slots; the call key is the tile
/// index. A run whose output fills the mask bound adopts its slot buffers
/// without copying, so the site does not fire there.
pub const FRAGMENT_STITCH: &str = "fragment-stitch";
/// Site at the head of each Eq. 2 work estimate in the symbolic prologue,
/// on the calling thread before any row block is dispatched; the call key
/// is the row count of the left operand.
pub const WORK_ESTIMATE: &str = "work-estimate";

/// Environment variable holding the failpoint spec.
pub const ENV_VAR: &str = "MSPGEMM_FAILPOINTS";

/// What an armed site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Unwind with a payload naming the site and key.
    Panic,
    /// Sleep for `ms` milliseconds (latency injection).
    Delay,
    /// Disarm the site (used by [`arm`] to clear a previous entry).
    Off,
}

/// Parsed per-site configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteSpec {
    /// What happens when the site fires.
    pub action: Action,
    /// Fire probability in `[0, 1]`.
    pub p: f64,
    /// Seed of the per-site Bernoulli stream.
    pub seed: u64,
    /// Delay duration in milliseconds (`delay` action only).
    pub ms: u64,
    /// If set, the site fires only for this exact call key — this is how a
    /// single tile is pinned.
    pub key: Option<u64>,
}

impl Default for SiteSpec {
    fn default() -> Self {
        SiteSpec { action: Action::Panic, p: 1.0, seed: 0, ms: 1, key: None }
    }
}

/// The armed-site table. `None` in the global cell means "this process
/// never arms failpoints" and is the zero-cost path.
pub struct Registry {
    sites: RwLock<HashMap<String, SiteSpec>>,
}

static REGISTRY: OnceLock<Option<Registry>> = OnceLock::new();

fn registry() -> Option<&'static Registry> {
    REGISTRY
        .get_or_init(|| match std::env::var(ENV_VAR) {
            Ok(spec) if !spec.trim().is_empty() => match parse_spec(&spec) {
                Ok(entries) => Some(Registry::from_entries(entries)),
                Err(e) => {
                    eprintln!("mspgemm: ignoring invalid {ENV_VAR}: {e}");
                    None
                }
            },
            _ => None,
        })
        .as_ref()
}

/// `true` once any failpoint configuration exists in this process.
#[inline]
pub fn armed() -> bool {
    registry().is_some()
}

/// Hit the named site with a call key. No-op (one cached-`Option` branch)
/// when the process has no failpoint configuration.
#[inline]
pub fn maybe_fire(site: &str, key: u64) {
    if let Some(reg) = registry() {
        reg.fire(site, key);
    }
}

/// Programmatically merge a spec into the registry (test harness use).
///
/// Sites named in `spec` replace any previous configuration for the same
/// site (including one from the environment); `site=off` disarms a site.
/// Fails if the spec does not parse, or if the registry was already
/// initialised *unarmed* — arm before the first failpoint touch, or run
/// with `MSPGEMM_FAILPOINTS` set.
pub fn arm(spec: &str) -> Result<(), String> {
    let entries = parse_spec(spec)?;
    match REGISTRY.get_or_init(|| Some(Registry { sites: RwLock::new(HashMap::new()) })) {
        Some(reg) => {
            let mut sites = reg.sites.write().unwrap_or_else(|e| e.into_inner());
            for (site, cfg) in entries {
                match cfg {
                    Some(c) => {
                        sites.insert(site, c);
                    }
                    None => {
                        sites.remove(&site);
                    }
                }
            }
            Ok(())
        }
        None => Err(format!(
            "failpoint registry already initialised unarmed; set {ENV_VAR} or call arm() \
             before the first failpoint is touched"
        )),
    }
}

/// Deterministic Bernoulli draw: a pure function of `(seed, key, p)` using
/// the in-tree ChaCha8 stream, so armed runs are bit-reproducible and
/// independent of scheduling order.
pub fn decide(seed: u64, key: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    let mixed = SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    let mut rng = ChaCha8Rng::seed_from_u64(mixed);
    rng.gen::<f64>() < p
}

impl Registry {
    fn from_entries(entries: Vec<(String, Option<SiteSpec>)>) -> Registry {
        let sites = entries.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
        Registry { sites: RwLock::new(sites) }
    }

    fn fire(&self, site: &str, key: u64) {
        let spec = match self.sites.read() {
            Ok(sites) => sites.get(site).cloned(),
            Err(_) => None,
        };
        let Some(spec) = spec else { return };
        if let Some(pinned) = spec.key {
            if pinned != key {
                return;
            }
        }
        if !decide(spec.seed, key, spec.p) {
            return;
        }
        match spec.action {
            Action::Off => {}
            Action::Delay => std::thread::sleep(std::time::Duration::from_millis(spec.ms)),
            Action::Panic => panic!(
                "failpoint '{site}' fired (key {key}, seed {seed}, p {p})",
                seed = spec.seed,
                p = spec.p
            ),
        }
    }
}

/// Parse a full spec string into `(site, config)` entries; `None` config
/// means "disarm this site".
pub fn parse_spec(spec: &str) -> Result<Vec<(String, Option<SiteSpec>)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rhs) = entry
            .split_once('=')
            .ok_or_else(|| format!("missing '=' in failpoint entry {entry:?}"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("empty site name in entry {entry:?}"));
        }
        let (action_str, params) = match rhs.split_once('@') {
            Some((a, p)) => (a.trim(), Some(p)),
            None => (rhs.trim(), None),
        };
        let action = match action_str {
            "panic" => Action::Panic,
            "delay" => Action::Delay,
            "off" => Action::Off,
            other => {
                return Err(format!(
                    "unknown action {other:?} for site {site:?} (expected panic|delay|off)"
                ))
            }
        };
        if action == Action::Off {
            out.push((site.to_string(), None));
            continue;
        }
        let mut cfg = SiteSpec { action, ..SiteSpec::default() };
        if let Some(params) = params {
            for param in params.split(',') {
                let param = param.trim();
                if param.is_empty() {
                    continue;
                }
                let (k, v) = param
                    .split_once(':')
                    .ok_or_else(|| format!("parameter {param:?} is not 'name:value'"))?;
                let v = v.trim();
                match k.trim() {
                    "p" => {
                        cfg.p = v
                            .parse::<f64>()
                            .map_err(|e| format!("bad p value {v:?}: {e}"))?;
                        if !(0.0..=1.0).contains(&cfg.p) {
                            return Err(format!("p must be in [0, 1], got {v}"));
                        }
                    }
                    "seed" => {
                        cfg.seed =
                            v.parse::<u64>().map_err(|e| format!("bad seed {v:?}: {e}"))?;
                    }
                    "ms" => {
                        cfg.ms = v.parse::<u64>().map_err(|e| format!("bad ms {v:?}: {e}"))?;
                    }
                    "key" => {
                        cfg.key =
                            Some(v.parse::<u64>().map_err(|e| format!("bad key {v:?}: {e}"))?);
                    }
                    other => return Err(format!("unknown parameter {other:?} in {entry:?}")),
                }
            }
        }
        out.push((site.to_string(), Some(cfg)));
    }
    if out.is_empty() {
        return Err("empty failpoint spec".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let entries =
            parse_spec("tile-kernel=panic@p:0.05,seed:42;accum-reset=delay@ms:2").unwrap();
        assert_eq!(entries.len(), 2);
        let (site, cfg) = &entries[0];
        let cfg = cfg.as_ref().unwrap();
        assert_eq!(site, "tile-kernel");
        assert_eq!(cfg.action, Action::Panic);
        assert!((cfg.p - 0.05).abs() < 1e-12);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.key, None);
        let (site, cfg) = &entries[1];
        let cfg = cfg.as_ref().unwrap();
        assert_eq!(site, "accum-reset");
        assert_eq!(cfg.action, Action::Delay);
        assert_eq!(cfg.ms, 2);
        assert!((cfg.p - 1.0).abs() < 1e-12, "p defaults to 1");
    }

    #[test]
    fn parses_off_and_key_pinning() {
        let entries = parse_spec("tile-kernel=off; fragment-stitch=panic@key:7").unwrap();
        assert_eq!(entries[0], ("tile-kernel".to_string(), None));
        let cfg = entries[1].1.as_ref().unwrap();
        assert_eq!(cfg.key, Some(7));
    }

    #[test]
    fn delay_blocks_for_the_configured_window_and_respects_keys() {
        arm("rt-test-delay=delay@ms:30,key:11").unwrap();
        // wrong key: returns immediately
        let start = std::time::Instant::now();
        maybe_fire("rt-test-delay", 10);
        assert!(start.elapsed() < std::time::Duration::from_millis(20));
        // pinned key: blocks for the whole window
        let start = std::time::Instant::now();
        maybe_fire("rt-test-delay", 11);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(30),
            "delay must hold the thread for the full window, held {:?}",
            start.elapsed()
        );
        arm("rt-test-delay=off").unwrap();
    }

    #[test]
    fn delay_uses_the_same_deterministic_bernoulli_stream_as_panic() {
        // p-gated delay fires for exactly the keys `decide` selects, so a
        // seeded latency injection replays exactly
        let fired: Vec<u64> = (0..64).filter(|&k| decide(7, k, 0.25)).collect();
        arm("rt-test-delay-p=delay@ms:15,p:0.25,seed:7").unwrap();
        for k in 0..64u64 {
            let start = std::time::Instant::now();
            maybe_fire("rt-test-delay-p", k);
            let delayed = start.elapsed() >= std::time::Duration::from_millis(15);
            assert_eq!(
                delayed,
                fired.contains(&k),
                "key {k}: delay firing must be the pure decide(seed, key, p) function"
            );
        }
        arm("rt-test-delay-p=off").unwrap();
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_spec("").is_err());
        assert!(parse_spec("tile-kernel").is_err(), "missing '='");
        assert!(parse_spec("tile-kernel=explode").is_err(), "unknown action");
        assert!(parse_spec("tile-kernel=panic@p:2.0").is_err(), "p out of range");
        assert!(parse_spec("tile-kernel=panic@p:x").is_err(), "bad float");
        assert!(parse_spec("tile-kernel=panic@frequency:1").is_err(), "unknown param");
        assert!(parse_spec("=panic").is_err(), "empty site");
    }

    #[test]
    fn decide_is_deterministic_and_respects_p() {
        for &(seed, key, p) in &[(42u64, 0u64, 0.3f64), (42, 17, 0.3), (7, 17, 0.9)] {
            let first = decide(seed, key, p);
            for _ in 0..3 {
                assert_eq!(decide(seed, key, p), first, "pure function of inputs");
            }
        }
        assert!(decide(1, 2, 1.0));
        assert!(!decide(1, 2, 0.0));
        // seeded frequency over many keys tracks p (deterministic check)
        let fired = (0..10_000).filter(|&k| decide(42, k, 0.25)).count();
        assert!((2000..3000).contains(&fired), "~25% of keys should fire, got {fired}");
    }

    #[test]
    fn different_seeds_give_different_fired_sets() {
        let set_a: Vec<u64> = (0..256).filter(|&k| decide(1, k, 0.5)).collect();
        let set_b: Vec<u64> = (0..256).filter(|&k| decide(2, k, 0.5)).collect();
        assert_ne!(set_a, set_b);
    }

    #[test]
    fn arm_and_fire_through_the_global_registry() {
        // This test (and any test in this binary touching the registry)
        // must arm before first use; sites here are private to this test.
        arm("rt-test-panic=panic@p:1.0;rt-test-quiet=panic@p:0.0;rt-test-delay=delay@ms:1")
            .unwrap();
        assert!(armed());
        let err = std::panic::catch_unwind(|| maybe_fire("rt-test-panic", 3));
        let payload = err.expect_err("armed panic site must unwind");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rt-test-panic"), "payload names the site: {msg}");
        assert!(msg.contains("key 3"), "payload names the key: {msg}");
        // p:0 never fires; unknown sites never fire; delay returns
        maybe_fire("rt-test-quiet", 3);
        maybe_fire("rt-test-unknown", 3);
        maybe_fire("rt-test-delay", 3);
        // off disarms
        arm("rt-test-panic=off").unwrap();
        maybe_fire("rt-test-panic", 3);
    }

    #[test]
    fn key_pinning_limits_firing_to_one_key() {
        arm("rt-test-pinned=panic@p:1.0,key:5").unwrap();
        maybe_fire("rt-test-pinned", 4);
        maybe_fire("rt-test-pinned", 6);
        assert!(std::panic::catch_unwind(|| maybe_fire("rt-test-pinned", 5)).is_err());
        arm("rt-test-pinned=off").unwrap();
    }
}
