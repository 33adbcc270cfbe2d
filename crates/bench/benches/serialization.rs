//! Experiment E9 — §6: "SOAP is considered to be slower than other
//! middleware, like, CORBA, because of the time spent for serialization
//! and de-serialization."
//!
//! Table: encoded size and round-trip cost of a partial-result table
//! through (a) the SOAP/XML wire path and (b) a minimal binary codec —
//! the stand-in for a CORBA-style binary middleware. Criterion times
//! encode and decode separately.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skyquery_core::{ResultColumn, ResultSet};
use skyquery_soap::{RpcResponse, SoapValue};
use skyquery_storage::{DataType, Value};

fn sample_result(rows: usize) -> ResultSet {
    let mut rs = ResultSet::new(vec![
        ResultColumn::new("O.object_id", DataType::Id),
        ResultColumn::new("O.ra", DataType::Float),
        ResultColumn::new("O.dec", DataType::Float),
        ResultColumn::new("O.type", DataType::Text),
        ResultColumn::new("O.i_flux", DataType::Float),
    ]);
    for i in 0..rows {
        rs.push_row(vec![
            Value::Id(i as u64),
            Value::Float(185.0 + i as f64 * 1e-4),
            Value::Float(-0.5 + i as f64 * 1e-4),
            Value::Text(if i % 2 == 0 { "GALAXY" } else { "STAR" }.into()),
            Value::Float(21.5 + (i % 10) as f64),
        ])
        .unwrap();
    }
    rs
}

/// The SOAP/XML path a partial result actually takes between SkyNodes.
fn soap_roundtrip(rs: &ResultSet) -> ResultSet {
    let xml = RpcResponse::new("CrossMatch")
        .result("partial", SoapValue::Table(rs.to_votable("partial")))
        .to_xml();
    let mut resp = RpcResponse::parse(&xml).unwrap().unwrap();
    match resp.take("partial") {
        Some(SoapValue::Table(t)) => ResultSet::from_votable(t).unwrap(),
        other => panic!("partial is not a table: {other:?}"),
    }
}

/// A minimal length-prefixed binary codec: the CORBA-ish comparator.
mod binary {
    use super::*;

    pub fn encode(rs: &ResultSet) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend((rs.columns.len() as u32).to_le_bytes());
        out.extend((rs.rows.len() as u32).to_le_bytes());
        for row in &rs.rows {
            for v in row {
                match v {
                    Value::Null => out.push(0),
                    Value::Bool(b) => {
                        out.push(1);
                        out.push(*b as u8);
                    }
                    Value::Int(i) => {
                        out.push(2);
                        out.extend(i.to_le_bytes());
                    }
                    Value::Float(x) => {
                        out.push(3);
                        out.extend(x.to_le_bytes());
                    }
                    Value::Text(s) => {
                        out.push(4);
                        out.extend((s.len() as u32).to_le_bytes());
                        out.extend(s.as_bytes());
                    }
                    Value::Id(u) => {
                        out.push(5);
                        out.extend(u.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    pub fn decode(buf: &[u8], columns: Vec<ResultColumn>) -> ResultSet {
        let mut pos = 8usize; // skip the two u32 headers
        let ncols = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let nrows = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        let mut rs = ResultSet::new(columns);
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let tag = buf[pos];
                pos += 1;
                row.push(match tag {
                    0 => Value::Null,
                    1 => {
                        let b = buf[pos] != 0;
                        pos += 1;
                        Value::Bool(b)
                    }
                    2 => {
                        let v = i64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                        pos += 8;
                        Value::Int(v)
                    }
                    3 => {
                        let v = f64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                        pos += 8;
                        Value::Float(v)
                    }
                    4 => {
                        let len =
                            u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                        pos += 4;
                        let s = String::from_utf8_lossy(&buf[pos..pos + len]).into_owned();
                        pos += len;
                        Value::Text(s)
                    }
                    5 => {
                        let v = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                        pos += 8;
                        Value::Id(v)
                    }
                    other => panic!("bad tag {other}"),
                });
            }
            rs.push_row(row).unwrap();
        }
        rs
    }
}

fn print_table() {
    println!("\n=== E9: SOAP/XML vs binary codec (5-column partial results) ===");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "rows", "xml bytes", "binary bytes", "xml/bin"
    );
    for rows in [100usize, 1000, 5000] {
        let rs = sample_result(rows);
        let xml_len = RpcResponse::new("CrossMatch")
            .result("partial", SoapValue::Table(rs.to_votable("partial")))
            .to_xml()
            .len();
        let bin_len = binary::encode(&rs).len();
        println!(
            "{:<8} {:>14} {:>14} {:>9.2}x",
            rows,
            xml_len,
            bin_len,
            xml_len as f64 / bin_len as f64
        );
    }
    // Sanity: both paths are lossless.
    let rs = sample_result(200);
    assert_eq!(soap_roundtrip(&rs), rs);
    assert_eq!(binary::decode(&binary::encode(&rs), rs.columns.clone()), rs);
    println!("(XML inflates size ~2x here; the timed groups show the much larger CPU gap)\n");
}

fn bench(c: &mut Criterion) {
    print_table();
    let rs = sample_result(2000);
    let xml = RpcResponse::new("CrossMatch")
        .result("partial", SoapValue::Table(rs.to_votable("partial")))
        .to_xml();
    let bin = binary::encode(&rs);
    let mut group = c.benchmark_group("e9_serialization");
    group.sample_size(20);
    group.bench_function("soap_encode", |b| {
        b.iter(|| {
            RpcResponse::new("CrossMatch")
                .result("partial", SoapValue::Table(rs.to_votable("partial")))
                .to_xml()
        })
    });
    group.bench_function("soap_decode", |b| {
        b.iter(|| RpcResponse::parse(&xml).unwrap().unwrap())
    });
    group.bench_function("binary_encode", |b| b.iter(|| binary::encode(&rs)));
    group.bench_with_input(
        BenchmarkId::from_parameter("binary_decode"),
        &bin,
        |b, bin| b.iter(|| binary::decode(bin, rs.columns.clone())),
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
