//! The versioned store of named schemas and mappings.
//!
//! A [`Catalog`] is the persistent half of the subsystem: schemas are named
//! signatures, mappings are named, directed edges between two schemas with a
//! constraint set over their union. Every entry carries a monotonically
//! increasing version and a content hash ([`crate::hash`]); edits bump the
//! version and change the hash, which is what drives memo-cache
//! invalidation upstream.
//!
//! Catalogs round-trip through the plain-text document format of paper §4:
//! [`Catalog::from_document`] ingests a parsed [`Document`], and
//! [`Catalog::to_document_string`] renders the whole catalog back into text
//! that `parse_document` accepts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mapcomp_algebra::{ConstraintSet, Document, Mapping, Signature};

use crate::error::CatalogError;
use crate::hash::{hash_mapping, hash_signature, ContentHash};

/// A named, versioned schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    /// Catalog-wide unique name.
    pub name: String,
    /// The signature.
    pub signature: Signature,
    /// Version, starting at 1 and bumped by every update.
    pub version: u64,
    /// Content hash of the signature.
    pub hash: ContentHash,
}

/// A named, versioned mapping: a directed edge `source → target` in the
/// composition graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingEntry {
    /// Catalog-wide unique name.
    pub name: String,
    /// Name of the source schema.
    pub source: String,
    /// Name of the target schema.
    pub target: String,
    /// Constraints over source ∪ target.
    pub constraints: ConstraintSet,
    /// Version, starting at 1 and bumped by every update.
    pub version: u64,
    /// Content hash of (source signature, target signature, constraints).
    pub hash: ContentHash,
    /// Hash history `(version, hash)`, oldest first — cheap provenance for
    /// auditing which revision a cached composition was built from.
    pub history: Vec<(u64, ContentHash)>,
}

impl MappingEntry {
    /// Materialise the mapping `(σ_in, σ_out, Σ)` against the given schemas.
    fn to_mapping(&self, source: &Signature, target: &Signature) -> Mapping {
        Mapping::new(source.clone(), target.clone(), self.constraints.clone())
    }
}

/// The versioned store of schemas and mappings.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schemas: BTreeMap<String, SchemaEntry>,
    mappings: BTreeMap<String, MappingEntry>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Number of registered mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }

    /// Iterate over schemas in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &SchemaEntry> {
        self.schemas.values()
    }

    /// Iterate over mappings in name order.
    pub fn mappings(&self) -> impl Iterator<Item = &MappingEntry> {
        self.mappings.values()
    }

    /// Look up a schema.
    pub fn schema(&self, name: &str) -> Result<&SchemaEntry, CatalogError> {
        self.schemas.get(name).ok_or_else(|| CatalogError::UnknownSchema(name.to_string()))
    }

    /// Look up a mapping.
    pub fn mapping(&self, name: &str) -> Result<&MappingEntry, CatalogError> {
        self.mappings.get(name).ok_or_else(|| CatalogError::UnknownMapping(name.to_string()))
    }

    /// Materialise a mapping entry into a [`Mapping`] over its registered
    /// schemas.
    pub fn materialize(&self, name: &str) -> Result<Mapping, CatalogError> {
        let entry = self.mapping(name)?;
        let source = self.schema(&entry.source)?;
        let target = self.schema(&entry.target)?;
        Ok(entry.to_mapping(&source.signature, &target.signature))
    }

    /// Register or update a schema; returns the new version. Updating an
    /// existing schema bumps its version and rehashes every mapping that
    /// touches it (their content includes the schema's signature). The names
    /// of those re-hashed mappings are returned so a session can invalidate
    /// dependent cache entries.
    pub fn add_schema(
        &mut self,
        name: impl Into<String>,
        signature: Signature,
    ) -> (u64, Vec<String>) {
        let name = name.into();
        let hash = hash_signature(&signature);
        let version = match self.schemas.get(&name) {
            Some(existing) if existing.hash == hash => return (existing.version, Vec::new()),
            Some(existing) => existing.version + 1,
            None => 1,
        };
        self.schemas
            .insert(name.clone(), SchemaEntry { name: name.clone(), signature, version, hash });
        // Rehash affected mappings.
        let mut touched = Vec::new();
        let schema_sigs: BTreeMap<String, Signature> =
            self.schemas.iter().map(|(n, e)| (n.clone(), e.signature.clone())).collect();
        for entry in self.mappings.values_mut() {
            if entry.source != name && entry.target != name {
                continue;
            }
            let (Some(source), Some(target)) =
                (schema_sigs.get(&entry.source), schema_sigs.get(&entry.target))
            else {
                continue;
            };
            let new_hash = hash_mapping(source, target, &entry.constraints);
            if new_hash != entry.hash {
                entry.version += 1;
                entry.hash = new_hash;
                entry.history.push((entry.version, new_hash));
                touched.push(entry.name.clone());
            }
        }
        (version, touched)
    }

    /// Register or update a mapping between two registered schemas; returns
    /// the new version. Re-registering with identical content is a no-op.
    pub fn add_mapping(
        &mut self,
        name: impl Into<String>,
        source: &str,
        target: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let name = name.into();
        let source_sig = self.schema(source)?.signature.clone();
        let target_sig = self.schema(target)?.signature.clone();
        // Shared symbols must agree on arity (overlapping schemas are allowed:
        // schema-evolution chains share every unchanged relation).
        let _combined = source_sig.union(&target_sig)?;
        let hash = hash_mapping(&source_sig, &target_sig, &constraints);
        let (version, mut history) = match self.mappings.get(&name) {
            Some(existing) if existing.hash == hash => return Ok(existing.version),
            Some(existing) => (existing.version + 1, existing.history.clone()),
            None => (1, Vec::new()),
        };
        history.push((version, hash));
        self.mappings.insert(
            name.clone(),
            MappingEntry {
                name,
                source: source.to_string(),
                target: target.to_string(),
                constraints,
                version,
                hash,
                history,
            },
        );
        Ok(version)
    }

    /// Replace the constraints of an existing mapping (the "edit one link"
    /// operation of the incremental-recomposition scenario); returns the new
    /// version.
    pub fn update_mapping(
        &mut self,
        name: &str,
        constraints: ConstraintSet,
    ) -> Result<u64, CatalogError> {
        let entry = self.mapping(name)?;
        let (source, target) = (entry.source.clone(), entry.target.clone());
        self.add_mapping(name.to_string(), &source, &target, constraints)
    }

    /// Remove a mapping; returns its entry if it existed.
    pub fn remove_mapping(&mut self, name: &str) -> Option<MappingEntry> {
        self.mappings.remove(name)
    }

    /// Ingest every schema and mapping of a parsed document. Existing entries
    /// with the same names are updated (and their versions bumped if the
    /// content changed). Returns the names of added-or-updated mappings.
    pub fn from_document(&mut self, document: &Document) -> Result<Vec<String>, CatalogError> {
        let mut touched = Vec::new();
        self.apply_document(document, &mut touched)?;
        Ok(touched)
    }

    /// The [`Catalog::from_document`] loop: apply schemas, then mappings,
    /// pushing onto `touched` every mapping added, edited or rehashed by a
    /// schema edit, sorted and deduplicated on success. Stops at the first
    /// failing entry; the entries applied before it stay applied and stay
    /// recorded in `touched`, so a caller can invalidate them either way.
    pub(crate) fn apply_document(
        &mut self,
        document: &Document,
        touched: &mut Vec<String>,
    ) -> Result<(), CatalogError> {
        for (name, signature) in &document.schemas {
            let (_, rehashed) = self.add_schema(name.clone(), signature.clone());
            touched.extend(rehashed);
        }
        for (name, (source, target, constraints)) in &document.mappings {
            let before = self.mappings.get(name).map(|e| e.hash);
            let version = self.add_mapping(name.clone(), source, target, constraints.clone())?;
            let after = self.mapping(name)?.hash;
            if before != Some(after) || version == 1 {
                touched.push(name.clone());
            }
        }
        touched.sort();
        touched.dedup();
        Ok(())
    }

    /// Re-apply persisted version counters and hash history (see
    /// [`crate::persist::VersionManifest`]). The document format carries
    /// content only, so a catalog rebuilt from it restarts every entry at
    /// version 1; this adopts the recorded version when the current content
    /// hash matches the recorded one, and treats a mismatch as one further
    /// out-of-session edit (recorded version + 1, history extended). Returns
    /// the number of entries whose version was restored or advanced.
    pub fn restore_versions(&mut self, manifest: &crate::persist::VersionManifest) -> usize {
        let mut adopted = 0;
        for (name, &(version, hash)) in &manifest.schemas {
            if let Some(entry) = self.schemas.get_mut(name) {
                entry.version = if entry.hash.0 == hash { version } else { version + 1 };
                adopted += 1;
            }
        }
        for (name, (version, history)) in &manifest.mappings {
            if let Some(entry) = self.mappings.get_mut(name) {
                let recorded_current = history.last().map(|(_, hash)| *hash);
                entry.history = history.iter().map(|&(v, h)| (v, ContentHash(h))).collect();
                if recorded_current == Some(entry.hash.0) {
                    entry.version = *version;
                } else {
                    entry.version = version + 1;
                    entry.history.push((entry.version, entry.hash));
                }
                adopted += 1;
            }
        }
        adopted
    }

    /// Render the whole catalog in the plain-text document format; the output
    /// re-parses with `parse_document` into an equivalent catalog.
    pub fn to_document_string(&self) -> String {
        let mut out = String::new();
        for entry in self.schemas.values() {
            // The document grammar requires a `;` after every relation, so
            // the schema body is rendered by hand rather than through
            // `Signature`'s Display (which omits the trailing one).
            let _ = write!(out, "schema {} {{ ", entry.name);
            for (name, info) in entry.signature.iter() {
                let _ = write!(out, "{name}/{}", info.arity);
                if let Some(key) = &info.key {
                    let cols: Vec<String> = key.iter().map(usize::to_string).collect();
                    let _ = write!(out, " key({})", cols.join(","));
                }
                let _ = write!(out, "; ");
            }
            let _ = writeln!(out, "}}");
        }
        for entry in self.mappings.values() {
            let _ =
                writeln!(out, "mapping {} : {} -> {} {{", entry.name, entry.source, entry.target);
            for constraint in entry.constraints.iter() {
                let _ = writeln!(out, "    {constraint};");
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapcomp_algebra::{parse_constraints, parse_document};

    fn sample() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_schema("s1", Signature::from_arities([("R", 1)]));
        catalog.add_schema("s2", Signature::from_arities([("S", 1)]));
        catalog.add_mapping("m12", "s1", "s2", parse_constraints("R <= S").unwrap()).unwrap();
        catalog
    }

    #[test]
    fn versions_bump_on_edit_only() {
        let mut catalog = sample();
        assert_eq!(catalog.mapping("m12").unwrap().version, 1);
        // Identical re-registration: no bump.
        let v =
            catalog.add_mapping("m12", "s1", "s2", parse_constraints("R <= S").unwrap()).unwrap();
        assert_eq!(v, 1);
        // Edit: bump + new hash.
        let before = catalog.mapping("m12").unwrap().hash;
        let v = catalog.update_mapping("m12", parse_constraints("S <= R").unwrap()).unwrap();
        assert_eq!(v, 2);
        assert_ne!(catalog.mapping("m12").unwrap().hash, before);
        assert_eq!(catalog.mapping("m12").unwrap().history.len(), 2);
    }

    #[test]
    fn schema_updates_rehash_touching_mappings() {
        let mut catalog = sample();
        let before = catalog.mapping("m12").unwrap().hash;
        let (version, touched) =
            catalog.add_schema("s2", Signature::from_arities([("S", 1), ("S2", 2)]));
        assert_eq!(version, 2);
        assert_eq!(touched, vec!["m12".to_string()]);
        assert_ne!(catalog.mapping("m12").unwrap().hash, before);
        // Unrelated schema: nothing rehashed.
        let (_, touched) = catalog.add_schema("s9", Signature::from_arities([("Z", 1)]));
        assert!(touched.is_empty());
    }

    #[test]
    fn unknown_names_error() {
        let mut catalog = sample();
        assert!(matches!(catalog.schema("nope"), Err(CatalogError::UnknownSchema(_))));
        assert!(matches!(catalog.mapping("nope"), Err(CatalogError::UnknownMapping(_))));
        assert!(catalog.add_mapping("m", "s1", "nope", ConstraintSet::new()).is_err());
    }

    #[test]
    fn arity_conflicts_are_rejected() {
        let mut catalog = Catalog::new();
        catalog.add_schema("a", Signature::from_arities([("R", 1)]));
        catalog.add_schema("b", Signature::from_arities([("R", 2)]));
        assert!(matches!(
            catalog.add_mapping("m", "a", "b", ConstraintSet::new()),
            Err(CatalogError::Algebra(_))
        ));
    }

    #[test]
    fn document_round_trip() {
        let catalog = sample();
        let text = catalog.to_document_string();
        let document = parse_document(&text).expect("rendered catalog re-parses");
        let mut rebuilt = Catalog::new();
        rebuilt.from_document(&document).unwrap();
        assert_eq!(rebuilt.schema_count(), catalog.schema_count());
        assert_eq!(rebuilt.mapping_count(), catalog.mapping_count());
        assert_eq!(rebuilt.mapping("m12").unwrap().hash, catalog.mapping("m12").unwrap().hash);
        // Round-trip once more: text is a fixpoint.
        assert_eq!(rebuilt.to_document_string(), text);
    }

    #[test]
    fn materialize_builds_the_mapping() {
        let catalog = sample();
        let mapping = catalog.materialize("m12").unwrap();
        assert!(mapping.input.contains("R"));
        assert!(mapping.output.contains("S"));
        assert_eq!(mapping.constraints.len(), 1);
    }
}
