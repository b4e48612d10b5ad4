//! Mutable construction of a [`KnowledgeGraph`].

use crate::entity::Entity;
use crate::error::{KgError, KgResult};
use crate::graph::{Direction, EdgeRef, KnowledgeGraph};
use crate::ids::{AttrId, EntityId, TypeId};
use crate::index::{NameIndex, TypeIndex};
use crate::interner::StringInterner;
use crate::predicate::PredicateVocabulary;
use crate::triple::Triple;

/// Incrementally assembles a knowledge graph, then freezes it with
/// [`GraphBuilder::build`].
///
/// Entity names are unique: [`GraphBuilder::add_entity`] returns the existing
/// id when the name was already added (and merges the provided types), which
/// matches the paper's assumption of disambiguated entities.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    entities: Vec<Entity>,
    triples: Vec<Triple>,
    predicates: PredicateVocabulary,
    types: StringInterner,
    attrs: StringInterner,
    name_index: NameIndex,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints for entities and triples.
    pub fn with_capacity(entities: usize, triples: usize) -> Self {
        Self {
            entities: Vec::with_capacity(entities),
            triples: Vec::with_capacity(triples),
            ..Self::default()
        }
    }

    /// Adds an entity with the given name and type names, returning its id.
    /// Re-adding an existing name merges the type sets and returns the
    /// original id.
    pub fn add_entity(&mut self, name: &str, type_names: &[&str]) -> EntityId {
        let type_ids: Vec<TypeId> = type_names
            .iter()
            .map(|t| TypeId::new(self.types.intern(t)))
            .collect();
        if let Some(id) = self.name_index.get(name) {
            let entity = &mut self.entities[id.index()];
            for ty in type_ids {
                entity.add_type(ty);
            }
            return id;
        }
        let id = EntityId::from(self.entities.len());
        self.entities.push(Entity::new(name, type_ids));
        self.name_index.insert(name.to_owned(), id);
        id
    }

    /// Strict variant of [`Self::add_entity`] that fails on duplicates.
    pub fn add_unique_entity(&mut self, name: &str, type_names: &[&str]) -> KgResult<EntityId> {
        if self.name_index.get(name).is_some() {
            return Err(KgError::DuplicateEntity(name.to_owned()));
        }
        Ok(self.add_entity(name, type_names))
    }

    /// Returns the id of an already-added entity by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.name_index.get(name)
    }

    /// Adds an extra type to an existing entity.
    pub fn add_type_to(&mut self, entity: EntityId, type_name: &str) {
        let ty = TypeId::new(self.types.intern(type_name));
        self.entities[entity.index()].add_type(ty);
    }

    /// Sets a numerical attribute on an entity.
    pub fn set_attribute(&mut self, entity: EntityId, attr_name: &str, value: f64) {
        let attr = AttrId::new(self.attrs.intern(attr_name));
        self.entities[entity.index()].attributes.set(attr, value);
    }

    /// Adds a directed edge `subject --predicate--> object`, returning the
    /// resulting triple. Self-loops and parallel edges are permitted (the
    /// semantic-aware random walk adds a deliberate self-loop on the mapping
    /// node to make the Markov chain aperiodic).
    pub fn add_edge(&mut self, subject: EntityId, predicate: &str, object: EntityId) -> Triple {
        let p = self.predicates.intern(predicate);
        let t = Triple::new(subject, p, object);
        self.triples.push(t);
        t
    }

    /// Adds an edge referring to entities by name, creating untyped entities
    /// on demand. Convenient for loaders and tests.
    pub fn add_edge_by_name(&mut self, subject: &str, predicate: &str, object: &str) -> Triple {
        let s = self.add_entity(subject, &[]);
        let o = self.add_entity(object, &[]);
        self.add_edge(s, predicate, o)
    }

    /// Removes **every occurrence** of the exact triple
    /// `subject --predicate--> object` added so far, returning how many were
    /// removed (0 when the predicate was never interned or no occurrence
    /// exists). Remaining triples keep their relative order — the builder
    /// counterpart of [`KnowledgeGraph::delete_edge`], so replaying a
    /// write schedule through a builder reproduces the overlay's state
    /// bit-for-bit (ids included, since a removed edge's predicate stays
    /// interned in both).
    pub fn remove_edge(&mut self, subject: EntityId, predicate: &str, object: EntityId) -> usize {
        let Some(p) = self.predicates.get(predicate) else {
            return 0;
        };
        let before = self.triples.len();
        self.triples
            .retain(|t| !(t.subject == subject && t.predicate == p && t.object == object));
        before - self.triples.len()
    }

    /// Name-addressed variant of [`Self::remove_edge`]; returns 0 when any
    /// name is unknown.
    pub fn remove_edge_by_name(&mut self, subject: &str, predicate: &str, object: &str) -> usize {
        match (self.name_index.get(subject), self.name_index.get(object)) {
            (Some(s), Some(o)) => self.remove_edge(s, predicate, o),
            _ => 0,
        }
    }

    /// Number of entities added so far.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of triples added so far.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
    }

    /// Freezes the builder into an immutable [`KnowledgeGraph`], constructing
    /// the CSR adjacency arrays and secondary indexes.
    ///
    /// Adjacency is built with a two-pass counting sort: one pass over the
    /// triples counts per-entity degrees (the CSR offsets), a second pass
    /// writes each entry into its slot. Entries within an entity's slice keep
    /// triple insertion order — the same order the previous nested-`Vec`
    /// representation produced — so walk and traversal results are unchanged.
    pub fn build(self) -> KnowledgeGraph {
        let (edges, offsets) = build_csr(self.entities.len(), &self.triples);
        let type_index = TypeIndex::build(&self.entities);
        KnowledgeGraph {
            entities: self.entities,
            edges,
            offsets,
            triples: self.triples,
            predicates: self.predicates,
            types: self.types,
            attrs: self.attrs,
            name_index: self.name_index,
            type_index,
            delta: None,
        }
    }
}

/// Builds the CSR adjacency arrays (`edges`, `offsets`) for `entity_count`
/// entities from a triple list, with the two-pass counting sort described on
/// [`GraphBuilder::build`]. Shared by the builder, compaction and snapshot
/// verification, so the representations cannot drift:
/// entries within an entity's slice keep triple order, and a self-loop
/// contributes a single adjacency entry.
pub(crate) fn build_csr(entity_count: usize, triples: &[Triple]) -> (Vec<EdgeRef>, Vec<u32>) {
    // The CSR offsets are u32 (see `KnowledgeGraph::offsets`): fail loudly
    // before the counting pass can wrap instead of corrupting adjacency.
    assert!(
        triples.len() <= (u32::MAX / 2) as usize,
        "graph exceeds CSR capacity: {} triples produce more than u32::MAX adjacency entries",
        triples.len()
    );
    // Pass 1: per-entity degree counts.
    let mut offsets = vec![0u32; entity_count + 1];
    for t in triples {
        offsets[t.subject.index() + 1] += 1;
        if t.subject != t.object {
            offsets[t.object.index() + 1] += 1;
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }

    // Pass 2: write entries into their slices, advancing a per-entity
    // cursor. `cursor` starts as the slice start offsets.
    let total = *offsets.last().unwrap_or(&0) as usize;
    let mut cursor: Vec<u32> = offsets[..offsets.len().saturating_sub(1)].to_vec();
    let placeholder = EdgeRef {
        neighbor: EntityId::new(0),
        predicate: crate::ids::PredicateId::new(0),
        direction: Direction::Outgoing,
    };
    let mut edges = vec![placeholder; total];
    for t in triples {
        let s = t.subject.index();
        edges[cursor[s] as usize] = EdgeRef {
            neighbor: t.object,
            predicate: t.predicate,
            direction: Direction::Outgoing,
        };
        cursor[s] += 1;
        if t.subject != t.object {
            let o = t.object.index();
            edges[cursor[o] as usize] = EdgeRef {
                neighbor: t.subject,
                predicate: t.predicate,
                direction: Direction::Incoming,
            };
            cursor[o] += 1;
        }
    }
    (edges, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_entity_is_idempotent_and_merges_types() {
        let mut b = GraphBuilder::new();
        let a = b.add_entity("BMW_X6", &["Automobile"]);
        let a2 = b.add_entity("BMW_X6", &["MeanOfTransportation"]);
        assert_eq!(a, a2);
        assert_eq!(b.entity_count(), 1);
        let g = b.build();
        assert_eq!(g.entity(a).types.len(), 2);
    }

    #[test]
    fn add_unique_entity_rejects_duplicates() {
        let mut b = GraphBuilder::new();
        b.add_unique_entity("Germany", &["Country"]).unwrap();
        assert!(matches!(
            b.add_unique_entity("Germany", &["Country"]),
            Err(KgError::DuplicateEntity(_))
        ));
    }

    #[test]
    fn self_loop_counts_once_in_adjacency() {
        let mut b = GraphBuilder::new();
        let u = b.add_entity("Germany", &["Country"]);
        b.add_edge(u, "self", u);
        let g = b.build();
        assert_eq!(g.degree(u), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_by_name_creates_entities() {
        let mut b = GraphBuilder::new();
        b.add_edge_by_name("KIA_K5", "designer", "Peter_Schreyer");
        b.add_edge_by_name("Peter_Schreyer", "nationality", "Germany");
        assert_eq!(b.entity_count(), 3);
        assert_eq!(b.triple_count(), 2);
        let g = b.build();
        let kia = g.entity_by_name("KIA_K5").unwrap();
        assert_eq!(g.degree(kia), 1);
        let peter = g.entity_by_name("Peter_Schreyer").unwrap();
        assert_eq!(g.degree(peter), 2);
    }

    #[test]
    fn with_capacity_builds_equivalent_graph() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let u = b.add_entity("a", &["T"]);
        let v = b.add_entity("b", &["T"]);
        b.add_edge(u, "p", v);
        b.set_attribute(v, "x", 1.0);
        b.add_type_to(v, "U");
        let g = b.build();
        assert_eq!(g.entity_count(), 2);
        assert!(g.entity(v).has_type(g.type_id("U").unwrap()));
    }
}
