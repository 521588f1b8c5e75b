//! In-memory relations over record schemas.
//!
//! A [`Relation`] is a named, schema-checked collection of records.  It
//! converts to and from the complex-object representation (`{record}`) used
//! by or-NRA queries, and offers the handful of query helpers the examples
//! and benchmarks need (selection, projection, conversion to the conceptual
//! level).

use std::sync::{Arc, OnceLock};

use or_nra::eval::{eval, Evaluator};
use or_nra::morphism::Morphism;
use or_nra::EvalError;
use or_object::intern::{InternId, Interner};
use or_object::{Type, Value};

use crate::schema::{Schema, SchemaError};

/// A relation's records interned once into a private, frozen arena: the
/// arena serves as the **base** of the engine's per-query overlay arenas,
/// so every query over the same relation reuses these ids and pays the
/// interning cost zero times after the first (see
/// [`Relation::interned`]).
#[derive(Debug, Clone)]
pub struct InternedRows {
    /// The frozen arena the ids live in.
    pub arena: Arc<Interner>,
    /// One id per record, in record order (`ids[i]` names `records()[i]`).
    pub ids: Vec<InternId>,
}

/// A named in-memory relation.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Relation name (for display and error messages).
    pub name: String,
    schema: Schema,
    rows: Vec<Value>,
    /// Lazily built interned-rows cache; reset by every mutation.
    interned: OnceLock<InternedRows>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        // the interned cache is derived state, not identity
        self.name == other.name && self.schema == other.schema && self.rows == other.rows
    }
}

/// Errors from relation operations.
#[derive(Debug)]
pub enum RelationError {
    /// A schema-level problem.
    Schema(SchemaError),
    /// A query evaluation problem.
    Eval(EvalError),
}

impl std::fmt::Display for RelationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationError::Schema(e) => write!(f, "{e}"),
            RelationError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RelationError {}

impl From<SchemaError> for RelationError {
    fn from(e: SchemaError) -> Self {
        RelationError::Schema(e)
    }
}

impl From<EvalError> for RelationError {
    fn from(e: EvalError) -> Self {
        RelationError::Eval(e)
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Relation {
            name: name.into(),
            schema,
            rows: Vec::new(),
            interned: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored records (encoded as nested pairs).
    pub fn records(&self) -> &[Value] {
        &self.rows
    }

    /// The records interned once into a frozen per-relation arena.
    ///
    /// Built lazily on first use and cached until the relation is mutated;
    /// the physical engine passes the arena as the base of its per-query
    /// overlay, so repeated queries over the same relation re-intern
    /// nothing.
    pub fn interned(&self) -> &InternedRows {
        self.interned.get_or_init(|| {
            let mut arena = Interner::new();
            let ids = self.rows.iter().map(|v| arena.intern(v)).collect();
            InternedRows {
                arena: Arc::new(arena),
                ids,
            }
        })
    }

    /// Bulk-load a relation from pre-encoded records (each must match the
    /// schema's record type).  Rows are deduplicated; this is the fast path
    /// the workload generators and benchmarks use.
    pub fn from_records(
        name: impl Into<String>,
        schema: Schema,
        records: impl IntoIterator<Item = Value>,
    ) -> Result<Relation, RelationError> {
        let mut relation = Relation::new(name, schema);
        let mut rows: Vec<Value> = Vec::new();
        for record in records {
            if !record.has_type(&relation.schema.record_type()) {
                return Err(RelationError::Schema(SchemaError::Mismatch(format!(
                    "record {record} does not match schema {}",
                    relation.schema
                ))));
            }
            rows.push(record);
        }
        rows.sort();
        rows.dedup();
        relation.rows = rows;
        Ok(relation)
    }

    /// Insert a row given one value per field.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<(), RelationError> {
        let record = self.schema.record(values)?;
        if !self.rows.contains(&record) {
            self.rows.push(record);
            self.interned = OnceLock::new(); // the cache follows the rows
        }
        Ok(())
    }

    /// Insert an already-encoded record.
    pub fn insert_record(&mut self, record: Value) -> Result<(), RelationError> {
        if !record.has_type(&self.schema.record_type()) {
            return Err(RelationError::Schema(SchemaError::Mismatch(format!(
                "record {record} does not match schema {}",
                self.schema
            ))));
        }
        if !self.rows.contains(&record) {
            self.rows.push(record);
            self.interned = OnceLock::new(); // the cache follows the rows
        }
        Ok(())
    }

    /// The complex-object representation of the whole relation
    /// (`{record_type}`).
    pub fn to_value(&self) -> Value {
        Value::set(self.rows.iter().cloned())
    }

    /// The object type of [`Relation::to_value`].
    pub fn value_type(&self) -> Type {
        self.schema.relation_type()
    }

    /// Run an arbitrary or-NRA⁺ morphism over the relation's object
    /// representation.
    pub fn query(&self, m: &Morphism) -> Result<Value, RelationError> {
        Ok(eval(m, &self.to_value())?)
    }

    /// Run a query with an explicit evaluator (antichain semantics, step
    /// budgets, …).
    pub fn query_with(&self, ev: &mut Evaluator, m: &Morphism) -> Result<Value, RelationError> {
        Ok(ev.eval(m, &self.to_value())?)
    }

    /// Select the records satisfying a predicate morphism (`record → bool`).
    pub fn select(&self, predicate: &Morphism) -> Result<Vec<Value>, RelationError> {
        let mut out = Vec::new();
        for row in &self.rows {
            if eval(predicate, row)? == Value::Bool(true) {
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Project every record onto a named field.
    pub fn project(&self, field: &str) -> Result<Vec<Value>, RelationError> {
        self.rows
            .iter()
            .map(|r| self.schema.get(r, field).map_err(RelationError::from))
            .collect()
    }

    /// The conceptual-level representation of the relation: the or-set of all
    /// complete (or-set-free) instances it can stand for.
    pub fn normalize(&self) -> Value {
        or_nra::normalize::normalize_value_typed(&self.to_value(), &self.value_type())
    }

    /// How many complete instances the relation stands for (with duplicate
    /// instances counted once).
    pub fn possibility_count(&self) -> u64 {
        or_nra::normalize::possibility_count(&self.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use or_nra::derived;

    fn offices() -> Relation {
        let schema = Schema::new([
            Field::new("name", Type::Str),
            Field::new("office", Type::orset(Type::Int)),
        ])
        .unwrap();
        let mut r = Relation::new("offices", schema);
        r.insert(vec![Value::str("Joe"), Value::int_orset([515])])
            .unwrap();
        r.insert(vec![Value::str("Mary"), Value::int_orset([515, 212])])
            .unwrap();
        r
    }

    #[test]
    fn insertion_deduplicates_and_type_checks() {
        let mut r = offices();
        assert_eq!(r.len(), 2);
        r.insert(vec![Value::str("Joe"), Value::int_orset([515])])
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(r
            .insert(vec![Value::Int(1), Value::int_orset([1])])
            .is_err());
    }

    #[test]
    fn relation_value_has_declared_type() {
        let r = offices();
        assert!(r.to_value().has_type(&r.value_type()));
    }

    #[test]
    fn selection_and_projection() {
        let r = offices();
        let name_is_joe = r
            .schema()
            .field_morphism("name")
            .unwrap()
            .then(Morphism::pair(
                Morphism::Id,
                Morphism::constant(Value::str("Joe")),
            ))
            .then(Morphism::Eq);
        assert_eq!(r.select(&name_is_joe).unwrap().len(), 1);
        let offices_col = r.project("office").unwrap();
        assert_eq!(offices_col.len(), 2);
    }

    #[test]
    fn normalization_counts_office_assignments() {
        let r = offices();
        // Joe has 1 possible office, Mary has 2: 2 complete instances.
        assert_eq!(r.possibility_count(), 2);
        let nf = r.normalize();
        assert_eq!(nf.elements().unwrap().len(), 2);
    }

    #[test]
    fn from_records_bulk_loads_and_type_checks() {
        let schema = Schema::new([Field::new("n", Type::Int)]).unwrap();
        let records: Vec<Value> = [3, 1, 2, 1].iter().map(|i| Value::Int(*i)).collect();
        let r = Relation::from_records("nums", schema.clone(), records).unwrap();
        assert_eq!(r.len(), 3);
        assert!(Relation::from_records("bad", schema, [Value::Bool(true)]).is_err());
    }

    #[test]
    fn queries_run_over_the_object_representation() {
        let r = offices();
        // "does anyone possibly sit in office 212?"
        let office = r.schema().field_morphism("office").unwrap();
        let is_212 =
            Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(212))).then(Morphism::Eq);
        let q = derived::exists(office.then(derived::or_exists(is_212)));
        assert_eq!(r.query(&q).unwrap(), Value::Bool(true));
        // "does everyone certainly sit in office 515?"
        let office = r.schema().field_morphism("office").unwrap();
        let is_515 =
            Morphism::pair(Morphism::Id, Morphism::constant(Value::Int(515))).then(Morphism::Eq);
        let q = derived::forall(office.then(derived::or_forall(is_515)));
        assert_eq!(r.query(&q).unwrap(), Value::Bool(false));
    }
}
