//! Runtime values and their comparison semantics.

use crate::schema::DataType;

/// A single cell value.
///
/// Comparison semantics follow SQL-ish conventions restricted to what the
/// SkyQuery dialect needs: `Null` compares equal to nothing (use
/// [`Value::sql_eq`] / [`Value::sql_cmp`]); integers and floats compare
/// numerically across types.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Unsigned 64-bit identifier: object IDs and HTM IDs.
    Id(u64),
}

impl Value {
    /// The data type this value naturally carries, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Id(_) => Some(DataType::Id),
        }
    }

    /// Whether this is `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Id(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// Integer view, when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Id(u) => i64::try_from(*u).ok(),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i64),
            _ => None,
        }
    }

    /// Boolean view, for booleans only.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Identifier view: `Id` directly, or a non-negative `Int`.
    pub fn as_id(&self) -> Option<u64> {
        match self {
            Value::Id(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// SQL equality: `Null` never equals anything (including `Null`);
    /// numerics compare across Int/Float/Id.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == std::cmp::Ordering::Equal)
    }

    /// SQL three-valued comparison: `None` when either side is `Null` or
    /// the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total ordering for index keys and sorting: `Null` sorts first, then
    /// booleans, then numerics (cross-type), then text. NaN sorts after all
    /// other floats. Unlike [`Value::sql_cmp`] this is total.
    pub fn key_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) | Id(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let x = a.as_f64().unwrap();
                let y = b.as_f64().unwrap();
                x.partial_cmp(&y).unwrap_or_else(|| {
                    // NaN handling: NaN == NaN, NaN > everything else.
                    match (x.is_nan(), y.is_nan()) {
                        (true, true) => Equal,
                        (true, false) => Greater,
                        (false, true) => Less,
                        (false, false) => unreachable!(),
                    }
                })
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Coerces the value into a column of type `ty`, returning the stored
    /// representation, or `None` when it cannot be stored there. `Int`
    /// widens into `Float`; `Int`≥0 narrows into `Id`.
    pub(crate) fn coerce(self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (v @ Value::Bool(_), DataType::Bool) => Some(v),
            (v @ Value::Int(_), DataType::Int) => Some(v),
            (Value::Int(i), DataType::Float) => Some(Value::Float(i as f64)),
            (Value::Int(i), DataType::Id) if i >= 0 => Some(Value::Id(i as u64)),
            (v @ Value::Float(_), DataType::Float) => Some(v),
            (v @ Value::Text(_), DataType::Text) => Some(v),
            (v @ Value::Id(_), DataType::Id) => Some(v),
            (Value::Id(u), DataType::Int) => i64::try_from(u).ok().map(Value::Int),
            _ => None,
        }
    }

    /// Approximate wire size in bytes, used by the network cost model.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Id(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => s.len() + 4,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Id(u) => write!(f, "{u}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        Value::Id(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn null_never_sql_equal() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Id(7).sql_cmp(&Value::Int(6)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn text_and_numeric_incomparable() {
        assert_eq!(Value::Text("a".into()).sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn key_cmp_total_ordering() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(0.5),
            Value::Int(1),
            Value::Id(2),
            Value::Float(f64::NAN),
            Value::Text("a".into()),
            Value::Text("b".into()),
        ];
        // key_cmp must be reflexive-equal and antisymmetric over this set.
        for a in &vals {
            assert_eq!(a.key_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.key_cmp(b);
                let ba = b.key_cmp(a);
                assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
            }
        }
        // Sorting should put them in rank order: Null, bools, numerics, text.
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.key_cmp(b));
        assert!(sorted[0].is_null());
        assert!(matches!(sorted.last().unwrap(), Value::Text(_)));
    }

    #[test]
    fn nan_sorts_after_numbers() {
        let mut v = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-1.0),
        ];
        v.sort_by(|a, b| a.key_cmp(b));
        assert_eq!(v[0], Value::Float(-1.0));
        assert!(matches!(v[2], Value::Float(x) if x.is_nan()));
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(3).coerce(DataType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::Int(3).coerce(DataType::Id), Some(Value::Id(3)));
        assert_eq!(Value::Int(-3).coerce(DataType::Id), None);
        assert_eq!(Value::Text("x".into()).coerce(DataType::Int), None);
        assert_eq!(Value::Null.coerce(DataType::Text), Some(Value::Null));
        assert_eq!(Value::Id(u64::MAX).coerce(DataType::Int), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Text("GALAXY".into()).to_string(), "GALAXY");
    }

    #[test]
    fn wire_size_accounts_for_text() {
        assert_eq!(Value::Int(1).wire_size(), 8);
        assert_eq!(Value::Text("abcd".into()).wire_size(), 8);
        assert_eq!(Value::Null.wire_size(), 1);
    }
}
