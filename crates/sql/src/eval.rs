//! Expression evaluation with SQL three-valued logic.
//!
//! SkyNodes use this to apply the non-spatial clauses of their local query
//! (paper §5.3: "the Cross match service executes its own (non-spatial)
//! query"). Spatial nodes (`AREA`, `XMATCH`) are *not* evaluable here —
//! they are compiled away by the decomposer/planner before any expression
//! reaches a row.

use skyquery_storage::{Row, TableSchema, Value};

use crate::ast::{BinaryOp, Expr, Literal, UnaryOp};
use crate::error::SqlError;

/// Resolves `alias.column` references to values.
pub trait Bindings {
    /// The value bound to `alias.column`, or an error if unknown.
    fn resolve(&self, alias: &str, column: &str) -> Result<Value, SqlError>;
}

/// Bindings with no columns — for constant expressions.
pub struct EmptyBindings;

impl Bindings for EmptyBindings {
    fn resolve(&self, alias: &str, column: &str) -> Result<Value, SqlError> {
        Err(SqlError::eval(format!(
            "no columns available, cannot resolve {alias}.{column}"
        )))
    }
}

/// Bindings over a single table row under one alias.
pub struct RowBindings<'a> {
    /// The alias the row is bound under.
    pub alias: &'a str,
    /// The row's table schema (for column lookup).
    pub schema: &'a TableSchema,
    /// The row itself.
    pub row: &'a Row,
}

impl Bindings for RowBindings<'_> {
    fn resolve(&self, alias: &str, column: &str) -> Result<Value, SqlError> {
        if alias != self.alias {
            return Err(SqlError::eval(format!(
                "alias {alias} not bound here (have {})",
                self.alias
            )));
        }
        let ci = self
            .schema
            .column_index(column)
            .ok_or_else(|| SqlError::eval(format!("unknown column {alias}.{column}")))?;
        Ok(self.row[ci].clone())
    }
}

impl Expr {
    /// Evaluates the expression against bindings. SQL semantics: NULL
    /// propagates through arithmetic and comparisons, AND/OR use Kleene
    /// three-valued logic.
    pub fn eval(&self, b: &dyn Bindings) -> Result<Value, SqlError> {
        match self {
            Expr::Literal(l) => Ok(match l {
                Literal::Null => Value::Null,
                Literal::Bool(x) => Value::Bool(*x),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(x) => Value::Float(*x),
                Literal::Str(s) => Value::Text(s.clone()),
            }),
            Expr::Column { alias, column } => b.resolve(alias, column),
            Expr::Unary { op, expr } => {
                let v = expr.eval(b)?;
                match op {
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => Err(SqlError::eval(format!("cannot negate {other}"))),
                    },
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Bool(x) => Ok(Value::Bool(!x)),
                        other => Err(SqlError::eval(format!("NOT applied to {other}"))),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, b),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(b)?;
                let lo = lo.eval(b)?;
                let hi = hi.eval(b)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let ge = v
                    .sql_cmp(&lo)
                    .ok_or_else(|| SqlError::eval(format!("cannot compare {v} with {lo}")))?
                    != std::cmp::Ordering::Less;
                let le = v
                    .sql_cmp(&hi)
                    .ok_or_else(|| SqlError::eval(format!("cannot compare {v} with {hi}")))?
                    != std::cmp::Ordering::Greater;
                Ok(Value::Bool((ge && le) != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(b)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for lit in list {
                    let lv = Expr::Literal(lit.clone()).eval(b)?;
                    if lv.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if v.sql_eq(&lv) == Some(true) {
                        return Ok(Value::Bool(!negated));
                    }
                }
                // SQL: no match but a NULL in the list → UNKNOWN.
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(b)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Bool(like_match(pattern, &s) != *negated)),
                    other => Err(SqlError::eval(format!("LIKE applied to non-text {other}"))),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(b)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Area(_) | Expr::Polygon(_) => Err(SqlError::eval(
                "AREA/POLYGON cannot be evaluated per row; they are compiled into range searches",
            )),
            Expr::XMatch(_) => Err(SqlError::eval(
                "XMATCH cannot be evaluated per row; it is executed by the cross-match chain",
            )),
        }
    }

    /// Evaluates as a predicate: NULL (unknown) is *not* satisfied, per
    /// SQL WHERE semantics.
    pub fn eval_predicate(&self, b: &dyn Bindings) -> Result<bool, SqlError> {
        match self.eval(b)? {
            Value::Bool(x) => Ok(x),
            Value::Null => Ok(false),
            other => Err(SqlError::eval(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

fn eval_binary(op: BinaryOp, lhs: &Expr, rhs: &Expr, b: &dyn Bindings) -> Result<Value, SqlError> {
    // Kleene logic short-circuits differently: FALSE AND x = FALSE even if
    // x is NULL, TRUE OR x = TRUE even if x is NULL.
    match op {
        BinaryOp::And => {
            let l = to_tristate(lhs.eval(b)?)?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = to_tristate(rhs.eval(b)?)?;
            return Ok(match (l, r) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = to_tristate(lhs.eval(b)?)?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = to_tristate(rhs.eval(b)?)?;
            return Ok(match (l, r) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }

    let l = lhs.eval(b)?;
    let r = rhs.eval(b)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l
            .sql_cmp(&r)
            .ok_or_else(|| SqlError::eval(format!("cannot compare {l} with {r}")))?;
        use std::cmp::Ordering::*;
        let result = match op {
            BinaryOp::Eq => ord == Equal,
            BinaryOp::NotEq => ord != Equal,
            BinaryOp::Lt => ord == Less,
            BinaryOp::LtEq => ord != Greater,
            BinaryOp::Gt => ord == Greater,
            BinaryOp::GtEq => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(result));
    }
    // Arithmetic.
    let (x, y) = match (l.as_f64(), r.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(SqlError::eval(format!(
                "arithmetic on non-numeric values {l} {} {r}",
                op.symbol()
            )))
        }
    };
    // Preserve integer arithmetic when both sides are integers (matters
    // for exact ids and counts); division always yields float.
    let both_int = matches!((&l, &r), (Value::Int(_), Value::Int(_)));
    let result = match op {
        BinaryOp::Add => x + y,
        BinaryOp::Sub => x - y,
        BinaryOp::Mul => x * y,
        BinaryOp::Div => {
            if y == 0.0 {
                return Ok(Value::Null); // SQL: division by zero → NULL here
            }
            x / y
        }
        _ => unreachable!(),
    };
    if both_int && op != BinaryOp::Div && result.fract() == 0.0 && result.abs() < 9.0e18 {
        Ok(Value::Int(result as i64))
    } else {
        Ok(Value::Float(result))
    }
}

/// SQL `LIKE` matching: `%` matches any run (including empty), `_` any
/// single character; everything else is literal. Case-sensitive, as SQL
/// Server's default collation for astronomy catalogs effectively was not —
/// but determinism beats fidelity here and the dialect documents it.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Iterative matcher with backtracking on the last `%`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((spi, sti)) = star {
            pi = spi + 1;
            ti = sti + 1;
            star = Some((spi, sti + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn to_tristate(v: Value) -> Result<Option<bool>, SqlError> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(SqlError::eval(format!(
            "boolean operator applied to {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use skyquery_storage::{ColumnDef, DataType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("x", DataType::Float),
                ColumnDef::new("n", DataType::Int),
                ColumnDef::new("name", DataType::Text).nullable(),
                ColumnDef::new("flag", DataType::Bool),
            ],
        )
    }

    fn eval(expr: &str, row: Vec<Value>) -> Result<Value, SqlError> {
        let s = schema();
        let b = RowBindings {
            alias: "O",
            schema: &s,
            row: &row,
        };
        parse_expr(expr).unwrap().eval(&b)
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Float(2.5),
            Value::Int(4),
            Value::Text("GALAXY".into()),
            Value::Bool(true),
        ]
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval("O.x + 1", row()).unwrap(), Value::Float(3.5));
        assert_eq!(eval("O.n * 2", row()).unwrap(), Value::Int(8));
        assert_eq!(eval("O.n / 2", row()).unwrap(), Value::Float(2.0));
        assert_eq!(eval("O.x > 2", row()).unwrap(), Value::Bool(true));
        assert_eq!(eval("O.n <= 3", row()).unwrap(), Value::Bool(false));
        assert_eq!(eval("-O.x < 0", row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn string_equality_including_bare_ident() {
        assert_eq!(eval("O.name = 'GALAXY'", row()).unwrap(), Value::Bool(true));
        // Paper style: bare GALAXY is a string constant.
        assert_eq!(eval("O.name = GALAXY", row()).unwrap(), Value::Bool(true));
        assert_eq!(eval("O.name != STAR", row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let null_row = vec![
            Value::Float(1.0),
            Value::Int(1),
            Value::Null,
            Value::Bool(false),
        ];
        assert_eq!(eval("O.name = 'x'", null_row.clone()).unwrap(), Value::Null);
        assert_eq!(
            eval("O.name = NULL", null_row.clone()).unwrap(),
            Value::Null
        );
        assert_eq!(eval("O.x + NULL", null_row).unwrap(), Value::Null);
    }

    #[test]
    fn kleene_logic() {
        // FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
        assert_eq!(
            eval("1 = 2 AND O.name = 'x'", null_named()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval("1 = 1 OR O.name = 'x'", null_named()).unwrap(),
            Value::Bool(true)
        );
        // TRUE AND NULL = NULL; FALSE OR NULL = NULL.
        assert_eq!(
            eval("1 = 1 AND O.name = 'x'", null_named()).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval("1 = 2 OR O.name = 'x'", null_named()).unwrap(),
            Value::Null
        );
    }

    fn null_named() -> Vec<Value> {
        vec![
            Value::Float(1.0),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
        ]
    }

    #[test]
    fn predicate_null_is_false() {
        let e = parse_expr("O.name = 'x'").unwrap();
        let s = schema();
        let r = null_named();
        let b = RowBindings {
            alias: "O",
            schema: &s,
            row: &r,
        };
        assert!(!e.eval_predicate(&b).unwrap());
    }

    #[test]
    fn division_by_zero_yields_null() {
        assert_eq!(eval("O.n / 0", row()).unwrap(), Value::Null);
    }

    #[test]
    fn type_errors_reported() {
        assert!(eval("O.name + 1", row()).is_err());
        assert!(eval("NOT O.x", row()).is_err());
        assert!(eval("O.flag = 1 AND O.x", row()).is_err());
        assert!(eval("O.name < 1", row()).is_err());
    }

    #[test]
    fn unknown_alias_or_column() {
        assert!(eval("Q.x > 1", row()).is_err());
        assert!(eval("O.missing > 1", row()).is_err());
    }

    #[test]
    fn spatial_nodes_are_not_row_evaluable() {
        assert!(eval("AREA(1.0, 2.0, 3.0)", row()).is_err());
        let s = schema();
        let r = row();
        let b = RowBindings {
            alias: "O",
            schema: &s,
            row: &r,
        };
        let e = parse_expr("XMATCH(O, T) < 2.0").unwrap();
        assert!(e.eval(&b).is_err());
    }

    #[test]
    fn bool_literals() {
        assert_eq!(eval("O.flag = TRUE", row()).unwrap(), Value::Bool(true));
        assert_eq!(eval("O.flag = FALSE", row()).unwrap(), Value::Bool(false));
    }
}
