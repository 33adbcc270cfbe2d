//! The query tree, plus `Display` impls that regenerate dialect SQL.

use std::fmt;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// A floating-point constant.
    Float(f64),
    /// A string constant.
    Str(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// Binary operators in increasing precedence groups: OR < AND < comparison
/// < additive < multiplicative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Logical `OR` (Kleene three-valued).
    Or,
    /// Logical `AND` (Kleene three-valued).
    And,
    /// `=`.
    Eq,
    /// `!=` / `<>`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (yields float; division by zero yields NULL).
    Div,
}

impl BinaryOp {
    /// The operator's SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// Precedence: higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 3,
            BinaryOp::Add | BinaryOp::Sub => 4,
            BinaryOp::Mul | BinaryOp::Div => 5,
        }
    }

    /// Whether this operator is a comparison (`=`, `<`, …).
    pub fn is_comparison(self) -> bool {
        self.precedence() == 3
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical `NOT x`.
    Not,
}

/// The spatial range of an `AREA(ra, dec, radius)` clause: center in
/// degrees, radius in arcminutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaSpec {
    /// Right ascension of the circle center, degrees.
    pub ra_deg: f64,
    /// Declination of the circle center, degrees.
    pub dec_deg: f64,
    /// Circle radius, arcminutes (the deployed system's unit).
    pub radius_arcmin: f64,
}

impl AreaSpec {
    /// The radius in radians.
    pub fn radius_rad(&self) -> f64 {
        (self.radius_arcmin / 60.0).to_radians()
    }
}

impl fmt::Display for AreaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AREA({}, {}, {})",
            Literal::Float(self.ra_deg),
            Literal::Float(self.dec_deg),
            Literal::Float(self.radius_arcmin)
        )
    }
}

/// The `POLYGON(ra1, dec1, …, raN, decN)` clause: a convex sky polygon,
/// vertices in degrees, counter-clockwise on the sky — the paper's §6
/// extension of the AREA clause.
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonSpec {
    /// `(ra°, dec°)` vertices, counter-clockwise on the sky.
    pub vertices: Vec<(f64, f64)>,
}

impl fmt::Display for PolygonSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "POLYGON(")?;
        for (i, (ra, dec)) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}, {}", Literal::Float(*ra), Literal::Float(*dec))?;
        }
        write!(f, ")")
    }
}

/// A spatial range clause: a circle (the original AREA) or a convex
/// polygon (the §6 extension).
#[derive(Debug, Clone, PartialEq)]
pub enum RegionSpec {
    /// The original `AREA(ra, dec, radius)` circle.
    Circle(AreaSpec),
    /// The §6 `POLYGON(…)` extension.
    Polygon(PolygonSpec),
}

impl fmt::Display for RegionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionSpec::Circle(a) => write!(f, "{a}"),
            RegionSpec::Polygon(p) => write!(f, "{p}"),
        }
    }
}

/// One archive term of an XMATCH clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XMatchTerm {
    /// Table alias from the FROM list.
    pub alias: String,
    /// True when written `!alias` — the drop-out ("exclusive outer join")
    /// form.
    pub dropout: bool,
}

/// The parsed `XMATCH(A, B, !C) < t` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct XMatchSpec {
    /// The participating archives, in clause order.
    pub terms: Vec<XMatchTerm>,
    /// Threshold in standard deviations.
    pub threshold: f64,
}

impl XMatchSpec {
    /// Aliases of the mandatory (non-drop-out) archives, in clause order.
    pub fn mandatory(&self) -> Vec<&str> {
        self.terms
            .iter()
            .filter(|t| !t.dropout)
            .map(|t| t.alias.as_str())
            .collect()
    }

    /// Aliases of the drop-out archives.
    pub fn dropouts(&self) -> Vec<&str> {
        self.terms
            .iter()
            .filter(|t| t.dropout)
            .map(|t| t.alias.as_str())
            .collect()
    }
}

impl fmt::Display for XMatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XMATCH(")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if t.dropout {
                write!(f, "!")?;
            }
            write!(f, "{}", t.alias)?;
        }
        write!(f, ") < {}", Literal::Float(self.threshold))
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Literal(Literal),
    /// `alias.column`.
    Column {
        /// Table alias from the FROM list.
        alias: String,
        /// Column name within that table.
        column: String,
    },
    /// A unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// A binary operator application.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN lo AND hi` (inclusive bounds).
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// True for the `NOT BETWEEN` form.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)` over literal values.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The literal membership list.
        list: Vec<Literal>,
        /// True for the `NOT IN` form.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` (any run) and `_` (any char).
    Like {
        /// The tested expression (must evaluate to text).
        expr: Box<Expr>,
        /// The LIKE pattern.
        pattern: String,
        /// True for the `NOT LIKE` form.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for the `IS NOT NULL` form.
        negated: bool,
    },
    /// `AREA(ra, dec, radius)` used as a boolean predicate.
    Area(AreaSpec),
    /// `POLYGON(ra1, dec1, …)` used as a boolean predicate (§6 extension).
    Polygon(PolygonSpec),
    /// A complete `XMATCH(…) < t` comparison.
    XMatch(XMatchSpec),
}

impl Expr {
    /// Splits a conjunction into its top-level AND conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                op: BinaryOp::And,
                lhs,
                rhs,
            } => {
                let mut out = lhs.conjuncts();
                out.extend(rhs.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuilds a conjunction from conjuncts; `None` when empty.
    pub fn and_all(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(|acc, e| Expr::Binary {
            op: BinaryOp::And,
            lhs: Box::new(acc),
            rhs: Box::new(e),
        })
    }

    /// Collects the distinct table aliases referenced by column refs, in
    /// first-appearance order.
    pub fn referenced_aliases(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.visit_columns(&mut |alias, _| {
            if !out.contains(&alias) {
                // Extending the borrow: alias lives as long as self.
                out.push(alias);
            }
        });
        out
    }

    /// Collects `(alias, column)` pairs.
    pub fn referenced_columns(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.visit_columns(&mut |a, c| {
            if !out.contains(&(a, c)) {
                out.push((a, c));
            }
        });
        out
    }

    fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a str)) {
        match self {
            Expr::Column { alias, column } => f(alias, column),
            Expr::Unary { expr, .. } => expr.visit_columns(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.visit_columns(f);
                lo.visit_columns(f);
                hi.visit_columns(f);
            }
            Expr::InList { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.visit_columns(f)
            }
            Expr::Literal(_) | Expr::Area(_) | Expr::Polygon(_) | Expr::XMatch(_) => {}
        }
    }

    /// Whether the tree contains an AREA or XMATCH node (spatial clauses
    /// may only appear as top-level conjuncts; the decomposer uses this to
    /// reject them elsewhere).
    pub fn contains_spatial(&self) -> bool {
        match self {
            Expr::Area(_) | Expr::Polygon(_) | Expr::XMatch(_) => true,
            Expr::Unary { expr, .. } => expr.contains_spatial(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_spatial() || rhs.contains_spatial(),
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_spatial() || lo.contains_spatial() || hi.contains_spatial()
            }
            Expr::InList { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.contains_spatial()
            }
            _ => false,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column { alias, column } => write!(f, "{alias}.{column}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    write!(f, "-")?;
                    // `--x` would lex as a SQL comment; parenthesize a
                    // directly nested negation.
                    if matches!(
                        **expr,
                        Expr::Unary {
                            op: UnaryOp::Neg,
                            ..
                        }
                    ) {
                        write!(f, "(")?;
                        expr.fmt_prec(f, 0)?;
                        write!(f, ")")?;
                        Ok(())
                    } else {
                        expr.fmt_prec(f, 6)
                    }
                }
                UnaryOp::Not => {
                    write!(f, "NOT ")?;
                    expr.fmt_prec(f, 6)
                }
            },
            Expr::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                // Comparisons are non-associative in the grammar: a nested
                // comparison on either side needs explicit parens.
                let lhs_prec = if op.is_comparison() { prec + 1 } else { prec };
                lhs.fmt_prec(f, lhs_prec)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand of same precedence needs parens to preserve
                // left associativity on reparse (e.g. a - (b - c)).
                rhs.fmt_prec(f, prec + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, "{} BETWEEN ", if *negated { " NOT" } else { "" })?;
                lo.fmt_prec(f, 4)?;
                write!(f, " AND ")?;
                hi.fmt_prec(f, 4)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, "{} IN (", if *negated { " NOT" } else { "" })?;
                for (i, l) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(
                    f,
                    "{} LIKE '{}'",
                    if *negated { " NOT" } else { "" },
                    pattern.replace('\'', "''")
                )
            }
            Expr::IsNull { expr, negated } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " IS{} NULL", if *negated { " NOT" } else { "" })
            }
            Expr::Area(a) => write!(f, "{a}"),
            Expr::Polygon(p) => write!(f, "{p}"),
            Expr::XMatch(x) => write!(f, "{x}"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// A `FROM` entry: `ARCHIVE:Table alias`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// The archive (federation member) hosting the table.
    pub archive: String,
    /// The table name within the archive.
    pub table: String,
    /// The alias used to qualify column references.
    pub alias: String,
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.archive, self.table, self.alias)
    }
}

/// Aggregate functions of the Query service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Non-NULL value count.
    Count,
    /// Minimum (NULLs skipped; empty input → NULL).
    Min,
    /// Maximum (NULLs skipped; empty input → NULL).
    Max,
    /// Numeric sum (NULLs skipped; empty input → NULL).
    Sum,
    /// Numeric mean (NULLs skipped; empty input → NULL).
    Avg,
}

impl AggFunc {
    /// The function's SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
        }
    }
}

/// A SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// An expression, optionally aliased with AS.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS` output name.
        alias: Option<String>,
    },
    /// `count(*)` — the performance-query form.
    CountStar,
    /// An aggregate over an expression, e.g. `max(O.i_flux)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Its argument expression.
        arg: Expr,
        /// Optional `AS` output name.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            SelectItem::CountStar => write!(f, "count(*)"),
            SelectItem::Aggregate { func, arg, alias } => {
                write!(f, "{}({arg})", func.name())?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Sort direction of an ORDER BY key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDirection {
    /// Ascending (NULLs first).
    Asc,
    /// Descending (NULLs last).
    Desc,
}

/// One ORDER BY key: an expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort-key expression.
    pub expr: Expr,
    /// Sort direction.
    pub direction: SortDirection,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.direction == SortDirection::Desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// A complete query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The SELECT list.
    pub select: Vec<SelectItem>,
    /// The FROM list, one entry per archive table.
    pub from: Vec<TableRef>,
    /// The WHERE expression, if any.
    pub where_clause: Option<Expr>,
    /// GROUP BY columns (`alias.column` references).
    pub group_by: Vec<Expr>,
    /// ORDER BY keys, applied after projection/aggregation.
    pub order_by: Vec<OrderKey>,
    /// Row-count cap, applied last.
    pub limit: Option<usize>,
}

impl Query {
    /// The FROM entry for an alias.
    pub fn table_for_alias(&self, alias: &str) -> Option<&TableRef> {
        self.from.iter().find(|t| t.alias == alias)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}")?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(alias: &str, column: &str) -> Expr {
        Expr::Column {
            alias: alias.into(),
            column: column.into(),
        }
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            lhs: Box::new(Expr::Binary {
                op: BinaryOp::And,
                lhs: Box::new(col("a", "x")),
                rhs: Box::new(col("b", "y")),
            }),
            rhs: Box::new(col("c", "z")),
        };
        assert_eq!(e.conjuncts().len(), 3);
        // OR is not split.
        let o = Expr::Binary {
            op: BinaryOp::Or,
            lhs: Box::new(col("a", "x")),
            rhs: Box::new(col("b", "y")),
        };
        assert_eq!(o.conjuncts().len(), 1);
    }

    #[test]
    fn and_all_rebuilds() {
        assert_eq!(Expr::and_all(vec![]), None);
        let single = Expr::and_all(vec![col("a", "x")]).unwrap();
        assert_eq!(single, col("a", "x"));
        let multi = Expr::and_all(vec![col("a", "x"), col("b", "y"), col("c", "z")]).unwrap();
        assert_eq!(multi.conjuncts().len(), 3);
    }

    #[test]
    fn alias_collection() {
        let e = Expr::Binary {
            op: BinaryOp::Gt,
            lhs: Box::new(Expr::Binary {
                op: BinaryOp::Sub,
                lhs: Box::new(col("O", "i_flux")),
                rhs: Box::new(col("T", "i_flux")),
            }),
            rhs: Box::new(Expr::Literal(Literal::Int(2))),
        };
        assert_eq!(e.referenced_aliases(), vec!["O", "T"]);
        assert_eq!(
            e.referenced_columns(),
            vec![("O", "i_flux"), ("T", "i_flux")]
        );
    }

    #[test]
    fn display_preserves_precedence() {
        // (a.x + b.y) * c.z must print with parens.
        let e = Expr::Binary {
            op: BinaryOp::Mul,
            lhs: Box::new(Expr::Binary {
                op: BinaryOp::Add,
                lhs: Box::new(col("a", "x")),
                rhs: Box::new(col("b", "y")),
            }),
            rhs: Box::new(col("c", "z")),
        };
        assert_eq!(e.to_string(), "(a.x + b.y) * c.z");
        // a.x + b.y * c.z needs none.
        let e2 = Expr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(col("a", "x")),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Mul,
                lhs: Box::new(col("b", "y")),
                rhs: Box::new(col("c", "z")),
            }),
        };
        assert_eq!(e2.to_string(), "a.x + b.y * c.z");
    }

    #[test]
    fn display_right_associativity_parens() {
        // a - (b - c) must keep its parens.
        let e = Expr::Binary {
            op: BinaryOp::Sub,
            lhs: Box::new(col("a", "x")),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Sub,
                lhs: Box::new(col("b", "y")),
                rhs: Box::new(col("c", "z")),
            }),
        };
        assert_eq!(e.to_string(), "a.x - (b.y - c.z)");
    }

    #[test]
    fn xmatch_display() {
        let x = XMatchSpec {
            terms: vec![
                XMatchTerm {
                    alias: "O".into(),
                    dropout: false,
                },
                XMatchTerm {
                    alias: "T".into(),
                    dropout: false,
                },
                XMatchTerm {
                    alias: "P".into(),
                    dropout: true,
                },
            ],
            threshold: 3.5,
        };
        assert_eq!(x.to_string(), "XMATCH(O, T, !P) < 3.5");
        assert_eq!(x.mandatory(), vec!["O", "T"]);
        assert_eq!(x.dropouts(), vec!["P"]);
    }

    #[test]
    fn area_display_and_radius() {
        let a = AreaSpec {
            ra_deg: 185.0,
            dec_deg: -0.5,
            radius_arcmin: 4.5,
        };
        assert_eq!(a.to_string(), "AREA(185.0, -0.5, 4.5)");
        assert!((a.radius_rad().to_degrees() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn string_literal_escaping() {
        assert_eq!(Literal::Str("it's".into()).to_string(), "'it''s'");
    }
}
