//! Per-tenant persisted [`KnobStore`]s.
//!
//! Each tenant's learned knob store lives at
//! `<dir>/knob_store_<tenant>.json`. Stores are loaded lazily on first
//! touch, merged version-monotonically with whatever is already on
//! disk ([`KnobStore::merge_from`]), and written back atomically
//! (temp + rename via the runtime's [`write_atomic`]) so a killed
//! daemon never leaves a torn store and a restarted daemon never rolls
//! a tenant's learning backwards. Without a `--store-dir` the registry
//! still works — stores are merely session-lived.

use lkas::characterize::KnobStore;
use lkas_runtime::write_atomic;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Maps a tenant name to a filesystem-safe store file name. Anything
/// outside `[A-Za-z0-9_-]` becomes `_`, so a hostile tenant string
/// cannot escape the store directory.
pub fn store_file_name(tenant: &str) -> String {
    let safe: String = tenant
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    format!("knob_store_{safe}.json")
}

/// One tenant's store behind its own lock: `None` until it is hydrated
/// from disk or first absorbed.
type TenantSlot = Arc<Mutex<Option<KnobStore>>>;

/// A lazily-loaded, persisted registry of per-tenant knob stores.
///
/// The registry lock only maps a tenant to its slot; reads, merges and
/// the disk write happen under that tenant's own lock, so one tenant's
/// write never stalls another tenant's reads.
pub struct TenantStores {
    dir: Option<PathBuf>,
    stores: Mutex<HashMap<String, TenantSlot>>,
}

impl TenantStores {
    /// A registry persisting under `dir`, or in-memory only when
    /// `None`.
    pub fn new(dir: Option<PathBuf>) -> Self {
        TenantStores { dir: dir.clone(), stores: Mutex::new(HashMap::new()) }
    }

    fn path_for(&self, tenant: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| dir.join(store_file_name(tenant)))
    }

    /// Runs `f` on the tenant's store under the tenant's lock, first
    /// hydrating it from disk if this session has not seen it yet.
    fn with_store<R>(&self, tenant: &str, f: impl FnOnce(&mut Option<KnobStore>) -> R) -> R {
        let slot = Arc::clone(
            self.stores.lock().expect("stores lock").entry(tenant.to_string()).or_default(),
        );
        let mut store = slot.lock().expect("tenant store lock");
        if store.is_none() {
            *store = self
                .path_for(tenant)
                .and_then(|path| std::fs::read_to_string(path).ok())
                .and_then(|json| KnobStore::from_json(&json).ok());
        }
        f(&mut store)
    }

    /// The tenant's current store: the in-memory one, hydrated from
    /// disk on first touch. `None` when the tenant has no store yet.
    pub fn get(&self, tenant: &str) -> Option<KnobStore> {
        self.with_store(tenant, |store| store.clone())
    }

    /// The tenant's store version, or 0 when none exists. Job keys for
    /// store-dependent (tuned) runs bake this in, so a result computed
    /// against an older store can never be replayed from the cache once
    /// the tenant has learned more.
    pub fn version(&self, tenant: &str) -> u64 {
        self.with_store(tenant, |store| store.as_ref().map_or(0, KnobStore::version))
    }

    /// Absorbs an evolved store for `tenant`: merges it
    /// version-monotonically into the in-memory (and any on-disk)
    /// state, then persists the merge atomically. The write happens
    /// under the tenant's lock, so concurrent absorbs for one tenant
    /// reach the disk in merge order and the file always holds the
    /// newest merge.
    ///
    /// # Errors
    ///
    /// Returns a message on a filesystem failure; the in-memory merge
    /// survives regardless.
    pub fn absorb(&self, tenant: &str, evolved: &KnobStore) -> Result<(), String> {
        self.with_store(tenant, |store| {
            let merged = match store {
                Some(store) => {
                    store.merge_from(evolved);
                    store
                }
                None => store.insert(evolved.clone()),
            };
            match self.path_for(tenant) {
                Some(path) => write_atomic(&path, (merged.to_json() + "\n").as_bytes())
                    .map_err(|e| format!("persist knob store for `{tenant}`: {e}")),
                None => Ok(()),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkas::knobs::KnobTable;
    use lkas::TABLE3_SITUATIONS;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lkas-fleet-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_are_sanitized() {
        assert_eq!(store_file_name("acme"), "knob_store_acme.json");
        assert_eq!(store_file_name("../../etc/passwd"), "knob_store_______etc_passwd.json");
        assert_eq!(store_file_name("a b/c"), "knob_store_a_b_c.json");
    }

    #[test]
    fn absorb_persists_and_reload_round_trips() {
        let dir = temp_dir("roundtrip");
        let stores = TenantStores::new(Some(dir.clone()));
        let mut evolved = KnobStore::from_table(KnobTable::paper_table3());
        let situation = TABLE3_SITUATIONS[0];
        let tuning = evolved.prior(&situation);
        evolved.record_outcome(&situation, tuning, Some(0.05));
        stores.absorb("acme", &evolved).unwrap();
        assert!(dir.join("knob_store_acme.json").is_file());

        // A fresh registry (fresh daemon) sees the persisted version.
        let reloaded = TenantStores::new(Some(dir.clone()));
        assert_eq!(reloaded.version("acme"), evolved.version());
        assert_eq!(reloaded.get("acme").unwrap(), evolved);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_version_monotonic() {
        let dir = temp_dir("monotonic");
        let stores = TenantStores::new(Some(dir.clone()));
        let situation = TABLE3_SITUATIONS[0];

        let mut newer = KnobStore::from_table(KnobTable::paper_table3());
        let tuning = newer.prior(&situation);
        newer.record_outcome(&situation, tuning, Some(0.04));
        newer.record_outcome(&situation, tuning, Some(0.03));
        stores.absorb("t", &newer).unwrap();
        let v_after_newer = stores.version("t");

        // Absorbing an older store must not roll the version back, and
        // the newer outcome must survive.
        let mut older = KnobStore::from_table(KnobTable::paper_table3());
        older.record_outcome(&situation, tuning, Some(0.09));
        stores.absorb("t", &older).unwrap();
        assert_eq!(stores.version("t"), v_after_newer.max(older.version()));
        let merged = stores.get("t").unwrap();
        assert_eq!(merged.prior_mae(&situation, &tuning), Some(0.03));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_registry_works_without_a_dir() {
        let stores = TenantStores::new(None);
        assert_eq!(stores.version("ghost"), 0);
        let evolved = KnobStore::from_table(KnobTable::paper_table3());
        stores.absorb("ghost", &evolved).unwrap();
        assert_eq!(stores.version("ghost"), evolved.version());
    }

    #[test]
    fn concurrent_absorbs_persist_the_newest_merge() {
        let dir = temp_dir("concurrent");
        let stores = TenantStores::new(Some(dir.clone()));
        let situation = TABLE3_SITUATIONS[0];
        // Eight evolved stores of distinct versions (2 through 9).
        let evolved: Vec<KnobStore> = (0..8)
            .map(|i| {
                let mut store = KnobStore::from_table(KnobTable::paper_table3());
                let tuning = store.prior(&situation);
                for k in 0..=i {
                    store.record_outcome(&situation, tuning, Some(0.01 * f64::from(k + 1)));
                }
                store
            })
            .collect();
        // Released together, every thread absorbs its store into each
        // of 16 tenants in turn, so the absorbs contend for each tenant.
        let tenants: Vec<String> = (0..16).map(|t| format!("t{t}")).collect();
        let start = std::sync::Barrier::new(evolved.len());
        std::thread::scope(|s| {
            for store in &evolved {
                let (stores, tenants, start) = (&stores, &tenants, &start);
                s.spawn(move || {
                    start.wait();
                    for tenant in tenants {
                        stores.absorb(tenant, store).expect("persist the merge");
                    }
                });
            }
        });
        for tenant in &tenants {
            let json = std::fs::read_to_string(dir.join(store_file_name(tenant))).unwrap();
            let on_disk = KnobStore::from_json(&json).unwrap();
            assert_eq!(on_disk.version(), stores.version(tenant), "{tenant}: the newest merge");
            assert_eq!(on_disk, stores.get(tenant).unwrap(), "{tenant}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
