//! Record schemas over the or-NRA type system.
//!
//! or-NRA has binary products rather than named records, so this module
//! provides the thin "record layer" that a database front end needs: a
//! [`Schema`] is an ordered list of named, typed fields; records are encoded
//! as right-nested pairs (`(f₁, (f₂, (…, fₙ)))`), and field access compiles
//! to a composition of projections.  This is exactly how the design/planning
//! examples of Imielinski–Naqvi–Vadaparty are modelled in the paper's
//! algebra.

use std::fmt;

use or_nra::morphism::Morphism;
use or_object::{Type, Value};

/// A named, typed field of a record schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, ty: Type) -> Field {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// Errors arising from schema operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A field name was not found in the schema.
    UnknownField(String),
    /// A record value did not match the schema.
    Mismatch(String),
    /// The schema has no fields.
    Empty,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownField(name) => write!(f, "unknown field {name}"),
            SchemaError::Mismatch(msg) => write!(f, "record does not match schema: {msg}"),
            SchemaError::Empty => write!(f, "schema has no fields"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// An ordered record schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Create a schema from fields.  At least one field is required.
    pub fn new(fields: impl IntoIterator<Item = Field>) -> Result<Schema, SchemaError> {
        let fields: Vec<Field> = fields.into_iter().collect();
        if fields.is_empty() {
            return Err(SchemaError::Empty);
        }
        Ok(Schema { fields })
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Position of a field by name.
    pub fn position(&self, name: &str) -> Result<usize, SchemaError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| SchemaError::UnknownField(name.to_string()))
    }

    /// The or-NRA object type of one record: right-nested pairs of the field
    /// types (a single field is just its type).
    pub fn record_type(&self) -> Type {
        let mut iter = self.fields.iter().rev();
        let last = iter.next().expect("schema is non-empty").ty.clone();
        iter.fold(last, |acc, f| Type::prod(f.ty.clone(), acc))
    }

    /// The type of a relation over this schema: a set of records.
    pub fn relation_type(&self) -> Type {
        Type::set(self.record_type())
    }

    /// Encode a row (one value per field, in order) as a record value.
    pub fn record(&self, values: Vec<Value>) -> Result<Value, SchemaError> {
        if values.len() != self.fields.len() {
            return Err(SchemaError::Mismatch(format!(
                "expected {} values, got {}",
                self.fields.len(),
                values.len()
            )));
        }
        for (field, value) in self.fields.iter().zip(values.iter()) {
            if !value.has_type(&field.ty) {
                return Err(SchemaError::Mismatch(format!(
                    "field {} expects type {}, got {value}",
                    field.name, field.ty
                )));
            }
        }
        let mut iter = values.into_iter().rev();
        let last = iter.next().expect("schema is non-empty");
        Ok(iter.fold(last, |acc, v| Value::pair(v, acc)))
    }

    /// Decode a record value back into one value per field.
    pub fn explode(&self, record: &Value) -> Result<Vec<Value>, SchemaError> {
        let mut out = Vec::with_capacity(self.fields.len());
        let mut cur = record;
        for i in 0..self.fields.len() {
            if i + 1 == self.fields.len() {
                out.push(cur.clone());
            } else {
                match cur.as_pair() {
                    Some((head, rest)) => {
                        out.push(head.clone());
                        cur = rest;
                    }
                    None => {
                        return Err(SchemaError::Mismatch(format!(
                            "expected a pair at field {}, found {cur}",
                            self.fields[i].name
                        )))
                    }
                }
            }
        }
        Ok(out)
    }

    /// Read a single named field from a record value.
    pub fn get(&self, record: &Value, name: &str) -> Result<Value, SchemaError> {
        let pos = self.position(name)?;
        Ok(self.explode(record)?.swap_remove(pos))
    }

    /// The or-NRA morphism projecting a record onto a named field
    /// (a composition of `π₂`s followed by a `π₁` unless it is the last
    /// field).
    pub fn field_morphism(&self, name: &str) -> Result<Morphism, SchemaError> {
        let pos = self.position(name)?;
        let mut m = Morphism::Id;
        for _ in 0..pos {
            m = m.then(Morphism::Proj2);
        }
        if pos + 1 < self.fields.len() {
            m = m.then(Morphism::Proj1);
        }
        Ok(m)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use or_nra::eval::eval;

    fn component_schema() -> Schema {
        Schema::new([
            Field::new("name", Type::Str),
            Field::new("module", Type::orset(Type::Int)),
            Field::new("critical", Type::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn record_type_is_right_nested() {
        let s = component_schema();
        assert_eq!(
            s.record_type(),
            Type::prod(Type::Str, Type::prod(Type::orset(Type::Int), Type::Bool))
        );
        assert_eq!(s.relation_type(), Type::set(s.record_type()));
    }

    #[test]
    fn record_roundtrip() {
        let s = component_schema();
        let values = vec![Value::str("A"), Value::int_orset([4, 7]), Value::Bool(true)];
        let record = s.record(values.clone()).unwrap();
        assert!(record.has_type(&s.record_type()));
        assert_eq!(s.explode(&record).unwrap(), values);
        assert_eq!(s.get(&record, "module").unwrap(), Value::int_orset([4, 7]));
    }

    #[test]
    fn record_validation_errors() {
        let s = component_schema();
        assert!(s.record(vec![Value::str("A")]).is_err());
        assert!(s
            .record(vec![
                Value::Int(1),
                Value::int_orset([1]),
                Value::Bool(true)
            ])
            .is_err());
        assert!(matches!(
            s.get(&Value::Int(1), "nosuch"),
            Err(SchemaError::UnknownField(_))
        ));
    }

    #[test]
    fn field_morphisms_project_correctly() {
        let s = component_schema();
        let record = s
            .record(vec![
                Value::str("A"),
                Value::int_orset([4, 7]),
                Value::Bool(true),
            ])
            .unwrap();
        for field in ["name", "module", "critical"] {
            let m = s.field_morphism(field).unwrap();
            assert_eq!(eval(&m, &record).unwrap(), s.get(&record, field).unwrap());
        }
    }

    #[test]
    fn single_field_schema() {
        let s = Schema::new([Field::new("id", Type::Int)]).unwrap();
        assert_eq!(s.record_type(), Type::Int);
        let r = s.record(vec![Value::Int(3)]).unwrap();
        assert_eq!(r, Value::Int(3));
        assert_eq!(s.field_morphism("id").unwrap(), Morphism::Id);
    }

    #[test]
    fn empty_schema_is_rejected() {
        assert!(matches!(Schema::new([]), Err(SchemaError::Empty)));
    }
}
