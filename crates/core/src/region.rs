//! Validated spatial regions: the execution-time form of the dialect's
//! `AREA` (circle) and `POLYGON` (§6 extension) clauses. A region is
//! built once, as the HTM crate's own shape — a [`Cap`] or a
//! [`ConvexPolygon`] — and that shape's [`ConvexRegion`] impl is the one
//! predicate the HTM descent, storage's partial-row filter and every
//! per-row test use.

use skyquery_htm::{Cap, ConvexPolygon, ConvexRegion, SkyPoint, Vec3};
use skyquery_sql::ast::{AreaSpec, PolygonSpec, RegionSpec};
use skyquery_xml::Element;

use crate::error::{attr, expect_element, parsed, FederationError, Result};

/// A validated, executable sky region, held as the HTM crate's own shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// A circular cap, built by [`Region::circle`].
    Circle {
        /// Circle center, as written (plans and pull-SQL print it).
        center: SkyPoint,
        /// Angular radius, radians, as written.
        radius_rad: f64,
        /// The cap itself, built once from `center` and `radius_rad`.
        cap: Cap,
    },
    /// A convex polygon (§6 extension).
    Polygon(ConvexPolygon),
}

impl Region {
    /// The circle of `radius_rad` about `(ra_deg, dec_deg)`, its cap built
    /// once. Refuses a non-finite center, and a radius that is not positive
    /// and finite (the radius the SQL parser refuses), as a protocol error.
    pub fn circle(ra_deg: f64, dec_deg: f64, radius_rad: f64) -> Result<Region> {
        let finite = [ra_deg, dec_deg, radius_rad].iter().all(|x| x.is_finite());
        if !finite || radius_rad <= 0.0 {
            return Err(FederationError::protocol(format!(
                "invalid circle: center ({ra_deg}, {dec_deg}), radius {radius_rad} rad"
            )));
        }
        let center = SkyPoint::from_radec_deg(ra_deg, dec_deg);
        Ok(Region::Circle {
            center,
            radius_rad,
            cap: Cap::new(center.to_vec3(), radius_rad),
        })
    }

    /// Validates and converts a parsed region spec. Polygon vertices are
    /// checked for convexity and CCW winding here, at planning time, so
    /// malformed regions fail before any network traffic.
    pub fn from_spec(spec: &RegionSpec) -> Result<Region> {
        match spec {
            RegionSpec::Circle(a) => Region::circle(a.ra_deg, a.dec_deg, a.radius_rad()),
            RegionSpec::Polygon(p) => {
                let poly = ConvexPolygon::from_radec_deg(&p.vertices).map_err(|e| {
                    FederationError::Sql(skyquery_sql::SqlError::semantic(format!(
                        "invalid POLYGON: {e}"
                    )))
                })?;
                Ok(Region::Polygon(poly))
            }
        }
    }

    /// The dialect-SQL spec form (for plan serialization and pull-SQL).
    pub fn to_spec(&self) -> RegionSpec {
        match self {
            Region::Circle {
                center, radius_rad, ..
            } => RegionSpec::Circle(AreaSpec {
                ra_deg: center.ra_deg,
                dec_deg: center.dec_deg,
                radius_arcmin: radius_rad.to_degrees() * 60.0,
            }),
            Region::Polygon(p) => RegionSpec::Polygon(PolygonSpec {
                vertices: p
                    .vertices()
                    .iter()
                    .map(|v| {
                        let s = SkyPoint::from_vec3(*v);
                        (s.ra_deg, s.dec_deg)
                    })
                    .collect(),
            }),
        }
    }

    /// Whether a sky point lies in the region.
    pub fn contains(&self, p: SkyPoint) -> bool {
        self.contains_vec(p.to_vec3())
    }

    /// Whether a unit vector lies in the region, by the same predicate the
    /// HTM descent tests trixel corners with.
    pub fn contains_vec(&self, v: Vec3) -> bool {
        self.as_convex_region().contains(v)
    }

    /// The region as an HTM search input: the cap or the polygon itself.
    pub fn as_convex_region(&self) -> &dyn ConvexRegion {
        match self {
            Region::Circle { cap, .. } => cap,
            Region::Polygon(p) => p,
        }
    }

    /// Serializes into the plan element.
    pub fn to_element(&self) -> Element {
        match self {
            Region::Circle {
                center, radius_rad, ..
            } => Element::new("Region")
                .with_attr("kind", "circle")
                .with_attr("ra", format!("{:?}", center.ra_deg))
                .with_attr("dec", format!("{:?}", center.dec_deg))
                .with_attr(
                    "radius_arcmin",
                    format!("{:?}", radius_rad.to_degrees() * 60.0),
                ),
            Region::Polygon(p) => {
                let mut e = Element::new("Region").with_attr("kind", "polygon");
                for v in p.vertices() {
                    let s = SkyPoint::from_vec3(*v);
                    e = e.with_child(
                        Element::new("V")
                            .with_attr("ra", format!("{:?}", s.ra_deg))
                            .with_attr("dec", format!("{:?}", s.dec_deg)),
                    );
                }
                e
            }
        }
    }

    /// Deserializes from the plan element.
    pub fn from_element(e: &Element) -> Result<Region> {
        expect_element(e, "Region")?;
        let num = |e, name| attr(e, name, parsed::<f64>);
        match attr(e, "kind", Some)? {
            "circle" => Region::circle(
                num(e, "ra")?,
                num(e, "dec")?,
                (num(e, "radius_arcmin")? / 60.0).to_radians(),
            ),
            "polygon" => {
                let vertices = e
                    .children_named("V")
                    .map(|v| Ok((num(v, "ra")?, num(v, "dec")?)))
                    .collect::<Result<Vec<_>>>()?;
                let poly = ConvexPolygon::from_radec_deg(&vertices).map_err(|err| {
                    FederationError::protocol(format!("invalid polygon in plan: {err}"))
                })?;
                Ok(Region::Polygon(poly))
            }
            other => Err(FederationError::protocol(format!(
                "unknown Region kind {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circle() -> Region {
        Region::circle(185.0, -0.5, 1.0_f64.to_radians()).unwrap()
    }

    fn square() -> Region {
        Region::Polygon(
            ConvexPolygon::from_radec_deg(&[
                (184.0, -1.0),
                (186.0, -1.0),
                (186.0, 1.0),
                (184.0, 1.0),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn circle_element_roundtrip() {
        let r = circle();
        let back = Region::from_element(&r.to_element()).unwrap();
        match (&r, &back) {
            (
                Region::Circle {
                    center: c1,
                    radius_rad: r1,
                    ..
                },
                Region::Circle {
                    center: c2,
                    radius_rad: r2,
                    ..
                },
            ) => {
                assert!(c1.separation(*c2) < 1e-12);
                assert!((r1 - r2).abs() < 1e-15);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn polygon_element_roundtrip() {
        let r = square();
        let back = Region::from_element(&r.to_element()).unwrap();
        assert!(back.contains(SkyPoint::from_radec_deg(185.0, 0.0)));
        assert!(!back.contains(SkyPoint::from_radec_deg(183.0, 0.0)));
    }

    #[test]
    fn spec_roundtrip() {
        for r in [circle(), square()] {
            let spec = r.to_spec();
            let back = Region::from_spec(&spec).unwrap();
            // Sampled agreement.
            for &(ra, dec) in &[
                (185.0, 0.0),
                (184.5, -0.8),
                (183.0, 0.0),
                (185.0, 1.5),
                (200.0, 50.0),
            ] {
                let p = SkyPoint::from_radec_deg(ra, dec);
                assert_eq!(r.contains(p), back.contains(p), "({ra},{dec}) in {r:?}");
            }
        }
    }

    #[test]
    fn spec_prints_valid_dialect_sql() {
        let circle_sql = circle().to_spec().to_string();
        assert!(circle_sql.starts_with("AREA("));
        let poly_sql = square().to_spec().to_string();
        assert!(poly_sql.starts_with("POLYGON("));
        // Both must reparse as expressions.
        assert!(skyquery_sql::parse_expr(&circle_sql).is_ok());
        assert!(skyquery_sql::parse_expr(&poly_sql).is_ok());
    }

    #[test]
    fn invalid_polygon_spec_rejected() {
        let spec = RegionSpec::Polygon(PolygonSpec {
            // Clockwise winding.
            vertices: vec![(184.0, 1.0), (186.0, 1.0), (186.0, -1.0), (184.0, -1.0)],
        });
        assert!(Region::from_spec(&spec).is_err());
    }

    #[test]
    fn malformed_elements_rejected() {
        assert!(Region::from_element(&Element::new("NotRegion")).is_err());
        assert!(Region::from_element(&Element::new("Region")).is_err());
        let bad_kind = Element::new("Region").with_attr("kind", "blob");
        assert!(Region::from_element(&bad_kind).is_err());
        let empty_poly = Element::new("Region").with_attr("kind", "polygon");
        assert!(Region::from_element(&empty_poly).is_err());
    }

    #[test]
    fn malformed_wire_region_attributes_are_refused() {
        let circle = |ra: &str, dec: &str, radius: &str| {
            Element::new("Region")
                .with_attr("kind", "circle")
                .with_attr("ra", ra)
                .with_attr("dec", dec)
                .with_attr("radius_arcmin", radius)
        };
        let mut garbled: Vec<Element> = ["-1", "0", "NaN", "inf"]
            .iter()
            .map(|r| circle("185.0", "-0.5", r))
            .collect();
        garbled.push(circle("NaN", "-0.5", "4.5"));
        garbled.push(circle("185.0", "inf", "4.5"));
        let mut poly = square().to_element();
        poly.children[1] = Element::new("V")
            .with_attr("ra", "186.0")
            .with_attr("dec", "NaN");
        garbled.push(poly);
        for e in &garbled {
            assert!(
                matches!(
                    Region::from_element(e),
                    Err(FederationError::Protocol { .. })
                ),
                "{e:?} was not refused"
            );
        }
        // The well-formed circle beside them still reads back.
        assert!(Region::from_element(&circle("185.0", "-0.5", "4.5")).is_ok());
    }
}
