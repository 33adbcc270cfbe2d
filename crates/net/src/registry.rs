//! A UDDI-flavoured service registry.
//!
//! "Services need a unique service for discovering other services … UDDI
//! is the standard architecture for building such repositories" (§3.1).
//! The Portal uses a registry to advertise itself and to enumerate
//! archives wishing to join.

use std::collections::HashMap;
use std::sync::RwLock;

use crate::sync::{read, write};
use crate::url::Url;

/// A registered service: who provides what, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Provider name (e.g. the archive name).
    pub provider: String,
    /// Service category (e.g. "SkyNode", "Portal").
    pub category: String,
    /// Endpoint URL.
    pub url: Url,
    /// Free-form description (e.g. WSDL location).
    pub description: String,
}

/// An in-process service repository keyed by provider name.
#[derive(Default)]
pub struct ServiceRegistry {
    records: RwLock<HashMap<String, ServiceRecord>>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry::default()
    }

    /// Registers (or re-registers) a service. Returns the previous record
    /// if the provider was already registered.
    pub fn register(&self, record: ServiceRecord) -> Option<ServiceRecord> {
        write(&self.records).insert(record.provider.clone(), record)
    }

    /// Removes a provider's registration.
    pub fn unregister(&self, provider: &str) -> Option<ServiceRecord> {
        write(&self.records).remove(provider)
    }

    /// Looks up a provider.
    pub fn find(&self, provider: &str) -> Option<ServiceRecord> {
        read(&self.records).get(provider).cloned()
    }

    /// All services in a category, sorted by provider name.
    pub fn discover(&self, category: &str) -> Vec<ServiceRecord> {
        let mut v: Vec<ServiceRecord> = read(&self.records)
            .values()
            .filter(|r| r.category == category)
            .cloned()
            .collect();
        v.sort_by(|a, b| a.provider.cmp(&b.provider));
        v
    }

    /// Number of registered providers.
    pub fn len(&self) -> usize {
        read(&self.records).len()
    }

    /// Whether no provider is registered.
    pub fn is_empty(&self) -> bool {
        read(&self.records).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(provider: &str, category: &str) -> ServiceRecord {
        ServiceRecord {
            provider: provider.into(),
            category: category.into(),
            url: Url::new(provider, "/soap"),
            description: format!("{provider} services"),
        }
    }

    #[test]
    fn register_find_unregister() {
        let r = ServiceRegistry::new();
        assert!(r.is_empty());
        assert!(r.register(rec("sdss", "SkyNode")).is_none());
        assert_eq!(r.find("sdss").unwrap().category, "SkyNode");
        // Re-registration returns the old record.
        let old = r.register(rec("sdss", "SkyNode")).unwrap();
        assert_eq!(old.provider, "sdss");
        assert_eq!(r.len(), 1);
        assert!(r.unregister("sdss").is_some());
        assert!(r.find("sdss").is_none());
        assert!(r.unregister("sdss").is_none());
    }

    #[test]
    fn discover_by_category_sorted() {
        let r = ServiceRegistry::new();
        r.register(rec("twomass", "SkyNode"));
        r.register(rec("sdss", "SkyNode"));
        r.register(rec("portal", "Portal"));
        let nodes = r.discover("SkyNode");
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].provider, "sdss");
        assert_eq!(nodes[1].provider, "twomass");
        assert_eq!(r.discover("Portal").len(), 1);
        assert!(r.discover("Unknown").is_empty());
    }
}
