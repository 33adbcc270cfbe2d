//! Property tests for the SOAP layer: calls, responses, faults, and
//! chunked transfers round-trip losslessly for arbitrary content.

use proptest::prelude::*;
use skyquery_soap::{
    chunk, ChunkManifest, MessageLimits, RpcCall, RpcResponse, SoapFault, SoapValue,
};
use skyquery_xml::{VoCell, VoColumn, VoTable, VoType, XmlWriter};

fn param_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,8}"
}

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            Just('<'),
            Just('&'),
            Just('"'),
            Just(' '),
            Just('é'),
        ],
        0..20,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn soap_value() -> impl Strategy<Value = SoapValue> {
    prop_oneof![
        text().prop_map(SoapValue::Str),
        any::<i64>().prop_map(SoapValue::Int),
        proptest::num::f64::NORMAL.prop_map(SoapValue::Float),
        any::<bool>().prop_map(SoapValue::Bool),
        Just(SoapValue::Null),
        (0usize..20).prop_map(|n| {
            let mut t = VoTable::new("t", vec![VoColumn::new("v", VoType::Int)]);
            for i in 0..n {
                t.rows.push(vec![VoCell::Int(i as i64)]);
            }
            SoapValue::Table(t)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rpc_call_roundtrip(
        method in "[A-Z][a-zA-Z]{0,10}",
        params in proptest::collection::vec((param_name(), soap_value()), 0..6),
    ) {
        let mut call = RpcCall::new(method);
        for (n, v) in params {
            call = call.param(n, v);
        }
        let back = RpcCall::parse(&call.to_xml()).unwrap();
        prop_assert_eq!(back, call);
    }

    #[test]
    fn rpc_response_roundtrip(
        method in "[A-Z][a-zA-Z]{0,10}",
        results in proptest::collection::vec((param_name(), soap_value()), 0..6),
    ) {
        let mut resp = RpcResponse::new(method);
        for (n, v) in results {
            resp = resp.result(n, v);
        }
        let back = RpcResponse::parse(&resp.to_xml()).unwrap().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn fault_roundtrip(msg in text(), detail in text()) {
        let fault = SoapFault::server(msg).with_detail(detail);
        let back = RpcResponse::parse(&fault.to_xml()).unwrap().unwrap_err();
        prop_assert_eq!(back, fault);
    }

    #[test]
    fn chunking_lossless_any_order(
        rows in 0usize..300,
        limit in 500usize..5000,
        order_seed in 0u64..1000,
    ) {
        let mut t = VoTable::new("big", vec![
            VoColumn::new("id", VoType::Id),
            VoColumn::new("payload", VoType::Text),
        ]);
        for i in 0..rows {
            t.rows.push(vec![VoCell::Id(i as u64), VoCell::Text(format!("data-{i}"))]);
        }
        let mut w = XmlWriter::new();
        let spans = t.write_into(&mut w);
        let xml = w.finish().unwrap();
        let ranges = match chunk::split_table(&spans, MessageLimits::tiny(limit)) {
            Ok(c) => c,
            // Schema alone exceeding the limit is a legitimate refusal.
            Err(_) => return Ok(()),
        };
        let manifest = ChunkManifest {
            transfer_id: 9,
            chunk_rows: ranges.iter().map(|r| r.len()).collect(),
        };
        let chunks: Vec<VoTable> = ranges
            .into_iter()
            .map(|rows| VoTable::parse(&chunk::cut(&xml, &spans, rows).concat()).unwrap())
            .collect();
        for c in &chunks {
            prop_assert!(c.to_xml().len() <= limit);
        }
        // Deterministic pseudo-shuffle of the delivery order.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        let mut s = order_seed | 1;
        for i in (1..order.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        // Whatever order the chunks arrive in, the manifest puts them
        // back: it announces one row count per chunk under the transfer
        // id, and concatenating in fetch order restores the original
        // table.
        prop_assert_eq!(manifest.transfer_id, 9);
        prop_assert_eq!(manifest.total_chunks(), chunks.len());
        let mut arrived: Vec<(usize, VoTable)> =
            order.iter().map(|&i| (i, chunks[i].clone())).collect();
        arrived.sort_by_key(|(i, _)| *i);
        for (rows, (_, c)) in manifest.chunk_rows.iter().zip(&arrived) {
            prop_assert_eq!(*rows, c.row_count());
        }
        let tables = arrived.into_iter().map(|(_, c)| c).collect();
        prop_assert_eq!(VoTable::concat(tables).unwrap(), t);
    }

    #[test]
    fn message_limits_admit_boundary(limit in 1usize..100_000, len in 0usize..200_000) {
        let limits = MessageLimits::tiny(limit);
        prop_assert_eq!(limits.admit(len).is_ok(), len <= limit);
    }

    #[test]
    fn every_chunk_reply_fits_the_limit(
        rows in 50usize..1000,
        limit in 1500usize..20_000,
        pad in 0usize..40,
        transfer_id in any::<u64>(),
    ) {
        let mut t = VoTable::new("big", vec![
            VoColumn::new("id", VoType::Id),
            VoColumn::new("payload", VoType::Text),
        ]);
        for i in 0..rows {
            let payload = format!("data-{i}-{}", "x".repeat((i * 7 + pad) % 40));
            t.rows.push(vec![VoCell::Id(i as u64), VoCell::Text(payload)]);
        }
        let mut w = XmlWriter::new();
        let spans = t.write_into(&mut w);
        let xml = w.finish().unwrap();
        let (manifest, replies) =
            chunk::chunk_replies(&xml, &spans, MessageLimits::tiny(limit), transfer_id).unwrap();
        prop_assert_eq!(manifest.total_chunks(), replies.len());
        prop_assert_eq!(manifest.chunk_rows.iter().sum::<usize>(), rows);
        // The reply, envelope included, is what the receiver's parser
        // admits or refuses.
        for reply in &replies {
            prop_assert!(reply.len() <= limit, "{} > {limit}", reply.len());
        }
    }
}
