//! The immutable, query-optimised knowledge graph.

use crate::attributes::AttrValue;
use crate::entity::Entity;
use crate::error::{KgError, KgResult};
use crate::ids::{AttrId, EntityId, PredicateId, TypeId};
use crate::index::{NameIndex, TypeIndex};
use crate::interner::StringInterner;
use crate::predicate::PredicateVocabulary;
use crate::triple::Triple;

/// Orientation of an edge relative to the node whose adjacency list contains it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The node is the subject of the underlying triple.
    Outgoing,
    /// The node is the object of the underlying triple.
    Incoming,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Self {
        match self {
            Direction::Outgoing => Direction::Incoming,
            Direction::Incoming => Direction::Outgoing,
        }
    }
}

/// One entry of a node's adjacency list.
///
/// The paper's random walk and subgraph-match semantics treat the graph as
/// undirected ("edge-to-path mapping"), so each triple contributes an entry to
/// both endpoints' adjacency lists; `direction` records the original
/// orientation for consumers that need it (e.g. the SPARQL-like exact engine).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The node at the other end of the edge.
    pub neighbor: EntityId,
    /// The edge predicate.
    pub predicate: PredicateId,
    /// Orientation relative to the owning node.
    pub direction: Direction,
}

/// The immutable knowledge graph (Definition 1).
///
/// Built with [`crate::GraphBuilder`]; once built, the structure is read-only
/// and cheap to share across threads (`&KnowledgeGraph` is `Sync`).
///
/// Adjacency is stored in compressed-sparse-row (CSR) form: one flat edge
/// array plus a per-entity offset array, so [`Self::neighbors`] is a
/// zero-cost slice into a single allocation and a full-graph traversal is a
/// linear scan — the access pattern sampler preparation (Eq. 5–6) and
/// the validation search are bound by.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    pub(crate) entities: Vec<Entity>,
    /// All adjacency entries, grouped by owning entity (CSR values).
    pub(crate) edges: Vec<EdgeRef>,
    /// CSR offsets: entity `i` owns `edges[offsets[i]..offsets[i + 1]]`.
    /// Length is `entities.len() + 1`; stored as `u32` to keep the array
    /// cache-resident (2·|E_G| adjacency entries must fit in `u32`).
    pub(crate) offsets: Vec<u32>,
    pub(crate) triples: Vec<Triple>,
    pub(crate) predicates: PredicateVocabulary,
    pub(crate) types: StringInterner,
    pub(crate) attrs: StringInterner,
    pub(crate) name_index: NameIndex,
    pub(crate) type_index: TypeIndex,
    /// Pending mutation overlay, if any (see [`crate::delta`]); boxed so the
    /// common frozen graph pays one pointer. `None` right after a build or a
    /// [`Self::compact`].
    pub(crate) delta: Option<Box<crate::delta::GraphDelta>>,
}

impl KnowledgeGraph {
    // ------------------------------------------------------------------
    // Size and basic access
    // ------------------------------------------------------------------

    /// Number of entities (|V_G|).
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of live triples (|E_G|), including pending overlay inserts and
    /// excluding tombstoned edges.
    pub fn edge_count(&self) -> usize {
        self.delta_live_edges().unwrap_or(self.triples.len())
    }

    /// Number of distinct node types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Number of distinct edge predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of distinct numerical attribute names.
    pub fn attribute_count(&self) -> usize {
        self.attrs.len()
    }

    /// Returns the entity record for `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range; use [`Self::try_entity`] for a
    /// fallible variant.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Fallible entity lookup.
    pub fn try_entity(&self, id: EntityId) -> KgResult<&Entity> {
        self.entities
            .get(id.index())
            .ok_or(KgError::InvalidEntityId(id.raw()))
    }

    /// Iterates all entity ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entities.len()).map(EntityId::from)
    }

    /// Iterates the triples of the **base CSR** — pending overlay writes are
    /// not reflected here. Use [`Self::live_triples`] for the logical triple
    /// set under a live overlay.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    // ------------------------------------------------------------------
    // Lookups by name
    // ------------------------------------------------------------------

    /// Finds an entity by its unique name.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        self.name_index.get(name)
    }

    /// Finds an entity by name, returning an error mentioning the name when
    /// missing (useful for query mapping of the specific node `q_s`).
    pub fn require_entity(&self, name: &str) -> KgResult<EntityId> {
        self.entity_by_name(name)
            .ok_or_else(|| KgError::UnknownEntity(name.to_owned()))
    }

    /// Looks up a predicate id by name.
    pub fn predicate_id(&self, name: &str) -> Option<PredicateId> {
        self.predicates.get(name)
    }

    /// Resolves a predicate id to its name.
    pub fn predicate_name(&self, id: PredicateId) -> &str {
        self.predicates.name(id)
    }

    /// The predicate vocabulary.
    pub fn predicates(&self) -> &PredicateVocabulary {
        &self.predicates
    }

    /// Looks up a type id by name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.types.get(name).map(TypeId::new)
    }

    /// Resolves a type id to its name.
    pub fn type_name(&self, id: TypeId) -> &str {
        self.types.resolve(id.raw())
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs.get(name).map(AttrId::new)
    }

    /// Resolves an attribute id to its name.
    pub fn attr_name(&self, id: AttrId) -> &str {
        self.attrs.resolve(id.raw())
    }

    /// Iterates `(TypeId, name)` for all node types.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &str)> {
        self.types.iter().map(|(i, s)| (TypeId::new(i), s))
    }

    /// Iterates `(AttrId, name)` for all attributes.
    pub fn attributes(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.attrs.iter().map(|(i, s)| (AttrId::new(i), s))
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// The (undirected) adjacency list of `id`. For a frozen graph this is a
    /// zero-cost slice into the flat CSR edge array; under a live overlay
    /// ([`crate::delta`]) a node touched by a write serves its merged
    /// copy-on-write row instead (same entry order a from-scratch rebuild
    /// would produce), and an entity appended after the last compaction
    /// serves an empty slice until an edge touches it.
    pub fn neighbors(&self, id: EntityId) -> &[EdgeRef] {
        if self.delta.is_some() {
            if let Some(row) = self.delta_row(id) {
                return row;
            }
            if id.index() + 1 >= self.offsets.len() {
                return &[];
            }
        }
        let i = id.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of `id` in the undirected view (each triple counts once per
    /// endpoint), overlay-aware like [`Self::neighbors`].
    pub fn degree(&self, id: EntityId) -> usize {
        if self.delta.is_some() {
            return self.neighbors(id).len();
        }
        let i = id.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Average degree over all entities (the `m` of the SSB complexity
    /// analysis in §III).
    pub fn average_degree(&self) -> f64 {
        if self.entities.is_empty() {
            return 0.0;
        }
        // Each triple contributes two adjacency entries.
        (2.0 * self.edge_count() as f64) / self.entities.len() as f64
    }

    /// All entities carrying type `ty`.
    pub fn entities_with_type(&self, ty: TypeId) -> &[EntityId] {
        self.type_index.entities_with_type(ty)
    }

    /// All entities carrying at least one of `types`.
    pub fn entities_with_any_type(&self, types: &[TypeId]) -> Vec<EntityId> {
        self.type_index.entities_with_any_type(types)
    }

    // ------------------------------------------------------------------
    // Attributes
    // ------------------------------------------------------------------

    /// Value of attribute `attr` on entity `id`, if present.
    pub fn attribute(&self, id: EntityId, attr: AttrId) -> Option<AttrValue> {
        self.entities[id.index()].attributes.get(attr)
    }

    /// Value of attribute `attr` on entity `id` as a plain `f64`.
    pub fn attribute_value(&self, id: EntityId, attr: AttrId) -> Option<f64> {
        self.attribute(id, attr).map(AttrValue::get)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::graph::Direction;
    use crate::ids::EntityId;

    fn tiny() -> crate::KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let germany = b.add_entity("Germany", &["Country"]);
        let bmw = b.add_entity("BMW_320", &["Automobile"]);
        let vw = b.add_entity("Volkswagen", &["Company"]);
        let audi = b.add_entity("Audi_TT", &["Automobile"]);
        b.set_attribute(bmw, "price", 41_500.0);
        b.set_attribute(audi, "price", 52_000.0);
        b.add_edge(bmw, "assembly", germany);
        b.add_edge(audi, "assembly", vw);
        b.add_edge(vw, "country", germany);
        b.build()
    }

    #[test]
    fn counts_and_lookups() {
        let g = tiny();
        assert_eq!(g.entity_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.type_count(), 3);
        assert_eq!(g.predicate_count(), 2);
        assert_eq!(g.attribute_count(), 1);
        assert_eq!(g.entity_by_name("Germany"), Some(EntityId::new(0)));
        assert!(g.require_entity("France").is_err());
        let auto = g.type_id("Automobile").unwrap();
        assert_eq!(g.entities_with_type(auto).len(), 2);
        assert_eq!(g.type_name(auto), "Automobile");
    }

    #[test]
    fn undirected_adjacency_has_both_directions() {
        let g = tiny();
        let germany = g.entity_by_name("Germany").unwrap();
        let bmw = g.entity_by_name("BMW_320").unwrap();
        // Germany is object of bmw-assembly->Germany and vw-country->Germany.
        assert_eq!(g.degree(germany), 2);
        let dirs: Vec<Direction> = g.neighbors(germany).iter().map(|e| e.direction).collect();
        assert!(dirs.iter().all(|d| *d == Direction::Incoming));
        assert_eq!(g.degree(bmw), 1);
        assert_eq!(g.neighbors(bmw)[0].direction, Direction::Outgoing);
        assert_eq!(g.neighbors(bmw)[0].neighbor, germany);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn attribute_access() {
        let g = tiny();
        let bmw = g.entity_by_name("BMW_320").unwrap();
        let price = g.attr_id("price").unwrap();
        assert_eq!(g.attribute_value(bmw, price), Some(41_500.0));
        let germany = g.entity_by_name("Germany").unwrap();
        assert_eq!(g.attribute_value(germany, price), None);
        assert_eq!(g.attr_name(price), "price");
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Outgoing.flip(), Direction::Incoming);
        assert_eq!(Direction::Incoming.flip(), Direction::Outgoing);
    }
}
