//! Chunked transfer of large result tables.
//!
//! The deployed SkyQuery hit a hard wall: "The XML parser at the SkyNode
//! would run out of memory while parsing SOAP messages of about 10 MB. We
//! worked around by dividing large data sets into smaller chunks" (§6).
//!
//! [`MessageLimits`] models the parser's capacity. A sender encodes its
//! table once and [`chunk_replies`] cuts it into `FetchChunk` replies that
//! each stay under the limit, announced in a [`ChunkManifest`]:
//! [`split_table`] chooses each chunk's rows, and [`chunk_reply`] cuts its
//! reply from that one encoding.
//! Receivers fetch the chunks in manifest order and concatenate them
//! ([`skyquery_xml::VoTable::concat`] checks schema consistency). The
//! federation's receiver is `core::transfer::ChunkStream`, which
//! additionally checks every chunk against the manifest.

use std::ops::Range;

use skyquery_xml::{Element, TableSpans};

use crate::{RpcResponse, SoapError, SoapValue};

/// The receiving parser's message-size capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageLimits {
    /// Maximum accepted envelope size in bytes.
    pub max_message_bytes: usize,
}

impl MessageLimits {
    /// The historical limit the paper reports (~10 MB).
    pub fn paper_2002() -> MessageLimits {
        MessageLimits {
            max_message_bytes: 10 * 1024 * 1024,
        }
    }

    /// A small limit for tests and benches.
    pub fn tiny(max_message_bytes: usize) -> MessageLimits {
        MessageLimits { max_message_bytes }
    }

    /// Checks an encoded message against the limit, mimicking the 2002
    /// parser's failure mode (an error instead of an OOM).
    pub fn admit(&self, encoded_len: usize) -> Result<(), SoapError> {
        if encoded_len > self.max_message_bytes {
            Err(SoapError::MessageTooLarge {
                size: encoded_len,
                limit: self.max_message_bytes,
            })
        } else {
            Ok(())
        }
    }
}

/// The typed envelope of a chunked transfer: everything a receiver needs
/// to drive the `FetchChunk` continuation — the transfer id and each
/// chunk's row count, in fetch order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkManifest {
    /// Transfer id the chunks must be fetched under.
    pub transfer_id: u64,
    /// Row count of each chunk, in fetch order.
    pub chunk_rows: Vec<usize>,
}

impl ChunkManifest {
    /// Number of chunks in the transfer.
    pub fn total_chunks(&self) -> usize {
        self.chunk_rows.len()
    }

    /// Serializes to the wire element.
    pub fn to_element(&self) -> Element {
        let total_rows: usize = self.chunk_rows.iter().sum();
        let mut e = Element::new("ChunkManifest")
            .with_attr("transfer_id", self.transfer_id.to_string())
            .with_attr("total_rows", total_rows.to_string());
        for rows in &self.chunk_rows {
            e = e.with_child(Element::new("Chunk").with_attr("rows", rows.to_string()));
        }
        e
    }

    /// Parses the wire element.
    pub fn from_element(e: &Element) -> Result<ChunkManifest, SoapError> {
        if e.name != "ChunkManifest" {
            return Err(SoapError::Protocol {
                detail: format!("expected ChunkManifest element, found {}", e.name),
            });
        }
        let attr_u64 = |name: &str| -> Result<u64, SoapError> {
            e.attr(name)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| SoapError::Protocol {
                    detail: format!("ChunkManifest missing attribute {name}"),
                })
        };
        let transfer_id = attr_u64("transfer_id")?;
        let total_rows = attr_u64("total_rows")? as usize;
        let chunk_rows = e
            .children_named("Chunk")
            .map(|ce| {
                ce.attr("rows")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| SoapError::Protocol {
                        detail: "Chunk missing rows".into(),
                    })
            })
            .collect::<Result<Vec<usize>, SoapError>>()?;
        if chunk_rows.is_empty() {
            return Err(SoapError::Protocol {
                detail: "ChunkManifest has no chunks".into(),
            });
        }
        // The counts come off the wire: a hostile peer can make the sum
        // overflow, so add with a check.
        let declared = chunk_rows
            .iter()
            .try_fold(0usize, |sum, rows| sum.checked_add(*rows));
        if declared != Some(total_rows) {
            return Err(SoapError::Protocol {
                detail: "ChunkManifest row counts do not sum to total_rows".into(),
            });
        }
        Ok(ChunkManifest {
            transfer_id,
            chunk_rows,
        })
    }
}

/// Chooses the rows of each chunk of the table that `spans` locates in
/// its encoding, so that every chunk — the table's header, its rows and
/// the footer — encodes within the limit; each chunk is then cut from
/// that one encoding ([`chunk_reply`]).
///
/// A table that fits is one chunk. Otherwise the row budget is estimated
/// from the table's encoded size and halved until every chunk fits; if a
/// pathological row still exceeds the limit on its own, an error is
/// returned (there is no way to ship it through the 2002 parser).
pub fn split_table(
    spans: &TableSpans,
    limits: MessageLimits,
) -> Result<Vec<Range<usize>>, SoapError> {
    let limit = limits.max_message_bytes;
    let full_len = spans.end - spans.start;
    let rows = spans.rows.len().saturating_sub(1);
    if full_len <= limit {
        return Ok(std::iter::once(0..rows).collect());
    }
    if rows == 0 {
        // An empty table that still exceeds the limit means the schema
        // alone is too large — nothing to chunk.
        return Err(SoapError::MessageTooLarge {
            size: full_len,
            limit,
        });
    }
    let rows_len = |r: &Range<usize>| spans.rows[r.end] - spans.rows[r.start];
    let chunk_len = |r: &Range<usize>| full_len - rows_len(&(0..rows)) + rows_len(r);
    // Without rows the table's `DATA` element self-closes.
    let header_len = chunk_len(&(0..0)) - ("<DATA></DATA>".len() - "<DATA/>".len());
    // Estimate rows per chunk from average encoded row size, with headroom.
    let avg_row = (full_len - header_len).max(1) as f64 / rows as f64;
    let budget = limit.saturating_sub(header_len);
    let mut rows_per_chunk = (((budget as f64 / avg_row) * 0.9) as usize).max(1);
    loop {
        let chunks: Vec<Range<usize>> = (0..rows)
            .step_by(rows_per_chunk)
            .map(|at| at..rows.min(at + rows_per_chunk))
            .collect();
        // Verify every chunk admits; shrink and retry otherwise.
        if chunks.iter().all(|c| chunk_len(c) <= limit) {
            return Ok(chunks);
        }
        if rows_per_chunk == 1 {
            return Err(SoapError::Chunking {
                detail: "a single row exceeds the message size limit".into(),
            });
        }
        rows_per_chunk /= 2;
    }
}

/// The encoding of the chunk holding rows `rows` of the table that
/// `spans` locates in `xml`, cut from it as the table's header, those
/// rows and its footer; for a table without rows, the whole table.
pub fn cut<'a>(xml: &'a str, spans: &TableSpans, rows: Range<usize>) -> [&'a str; 3] {
    let bounds = &spans.rows;
    let Some(last) = bounds.len().checked_sub(1) else {
        return [&xml[spans.start..spans.end], "", ""];
    };
    [
        &xml[spans.start..bounds[0]],
        &xml[bounds[rows.start]..bounds[rows.end]],
        &xml[bounds[last]..spans.end],
    ]
}

/// The `FetchChunk` reply serving chunk `index` of `total` of transfer
/// `transfer_id`: the rows `rows` of the table that `spans` locates in
/// `xml`, [`cut`] from that encoding.
pub fn chunk_reply(
    xml: &str,
    spans: &TableSpans,
    rows: Range<usize>,
    index: usize,
    total: usize,
    transfer_id: u64,
) -> String {
    RpcResponse::new("FetchChunk")
        .result("index", SoapValue::Int(index as i64))
        .result("total", SoapValue::Int(total as i64))
        .result("transfer_id", SoapValue::Int(transfer_id as i64))
        .encode_with_table("chunk", &cut(xml, spans, rows))
}

/// The `FetchChunk` replies of transfer `transfer_id` serving the table
/// that `spans` locates in `xml`, each within `limits`, and the manifest
/// announcing them. The chunks are split ([`split_table`]) under the
/// limit less the widest envelope around a chunk: that of a reply whose
/// `index` and `total` are the row count, which bounds both.
pub fn chunk_replies(
    xml: &str,
    spans: &TableSpans,
    limits: MessageLimits,
    transfer_id: u64,
) -> Result<(ChunkManifest, Vec<String>), SoapError> {
    let rows = spans.rows.len().saturating_sub(1);
    let bare = chunk_reply(xml, spans, 0..0, rows, rows, transfer_id).len();
    let envelope = bare - cut(xml, spans, 0..0).map(str::len).iter().sum::<usize>();
    let table = MessageLimits::tiny(limits.max_message_bytes.saturating_sub(envelope));
    let chunks = split_table(spans, table)?;
    let total = chunks.len();
    let manifest = ChunkManifest {
        transfer_id,
        chunk_rows: chunks.iter().map(|rows| rows.len()).collect(),
    };
    let replies = chunks
        .into_iter()
        .enumerate()
        .map(|(index, rows)| chunk_reply(xml, spans, rows, index, total, transfer_id))
        .collect();
    Ok((manifest, replies))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_xml::{VoCell, VoColumn, VoTable, VoType, XmlWriter};

    /// `t` encoded once: the encoding and where each row lies.
    fn encode(t: &VoTable) -> (String, TableSpans) {
        let mut w = XmlWriter::new();
        let spans = t.write_into(&mut w);
        (w.finish().unwrap(), spans)
    }

    /// Splits `t` under `limit`: its chunks, each read back from the
    /// `FetchChunk` reply cut for it under transfer `id`.
    fn split(t: &VoTable, limit: usize, id: u64) -> Result<Vec<VoTable>, SoapError> {
        let (xml, spans) = encode(t);
        let chunks = split_table(&spans, MessageLimits::tiny(limit))?;
        let total = chunks.len();
        let replies = chunks
            .into_iter()
            .enumerate()
            .map(|(index, rows)| chunk_reply(&xml, &spans, rows, index, total, id));
        Ok(replies
            .enumerate()
            .map(|(index, reply)| {
                let mut resp = RpcResponse::parse(&reply).unwrap().unwrap();
                assert_eq!(resp.method, "FetchChunk");
                let served = |name| resp.get(name).and_then(SoapValue::as_i64);
                assert_eq!(served("index"), Some(index as i64));
                assert_eq!(served("total"), Some(total as i64));
                assert_eq!(served("transfer_id"), Some(id as i64));
                match resp.take("chunk") {
                    Some(SoapValue::Table(chunk)) => chunk,
                    other => panic!("a chunk reply carries a table, not {other:?}"),
                }
            })
            .collect())
    }

    fn big_table(rows: usize) -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("id", VoType::Id),
                VoColumn::new("payload", VoType::Text),
            ],
        );
        for i in 0..rows {
            t.rows.push(vec![
                VoCell::Id(i as u64),
                VoCell::Text(format!("row-{i}-{}", "x".repeat(40))),
            ]);
        }
        t
    }

    #[test]
    fn small_table_single_chunk() {
        let t = big_table(3);
        let limit = MessageLimits::paper_2002().max_message_bytes;
        let chunks = split(&t, limit, 1).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], t);
    }

    #[test]
    fn large_table_chunks_under_limit_and_reassembles() {
        let t = big_table(200);
        let chunks = split(&t, 2000, 42).unwrap();
        assert!(chunks.len() > 1, "expected multiple chunks");
        for c in &chunks {
            assert!(c.to_xml().len() <= 2000);
        }
        assert_eq!(VoTable::concat(chunks).unwrap(), t);
    }

    #[test]
    fn oversize_unchunked_message_rejected() {
        let t = big_table(200);
        let limits = MessageLimits::tiny(2000);
        assert!(limits.admit(t.to_xml().len()).is_err());
        assert!(limits.admit(100).is_ok());
    }

    #[test]
    fn single_giant_row_cannot_ship() {
        let mut t = VoTable::new("x", vec![VoColumn::new("blob", VoType::Text)]);
        t.rows.push(vec![VoCell::Text("y".repeat(5000))]);
        let err = split(&t, 1000, 0).unwrap_err();
        assert!(matches!(err, SoapError::Chunking { .. }));
    }

    #[test]
    fn manifest_roundtrip() {
        let m = ChunkManifest {
            transfer_id: 3,
            chunk_rows: vec![40, 40, 7],
        };
        let e = m.to_element();
        assert_eq!(e.attr("total_rows"), Some("87"));
        let back = ChunkManifest::from_element(&e).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_chunks(), 3);

        // Attributes the reader does not know are ignored.
        let zoned = Element::new("ChunkManifest")
            .with_attr("transfer_id", "17")
            .with_attr("total_rows", "120")
            .with_attr("zone_height_deg", "0.25")
            .with_child(
                Element::new("Chunk")
                    .with_attr("rows", "70")
                    .with_attr("zone_lo", "890")
                    .with_attr("zone_hi", "901"),
            )
            .with_child(Element::new("Chunk").with_attr("rows", "50"));
        let back = ChunkManifest::from_element(&zoned).unwrap();
        assert_eq!(back.chunk_rows, vec![70, 50]);
    }

    #[test]
    fn manifest_rejects_malformed() {
        assert!(ChunkManifest::from_element(&Element::new("NotAManifest")).is_err());
        // No chunks.
        let empty = Element::new("ChunkManifest")
            .with_attr("transfer_id", "1")
            .with_attr("total_rows", "0");
        assert!(ChunkManifest::from_element(&empty).is_err());
        // Rows don't sum.
        let bad = Element::new("ChunkManifest")
            .with_attr("transfer_id", "1")
            .with_attr("total_rows", "10")
            .with_child(Element::new("Chunk").with_attr("rows", "3"));
        assert!(ChunkManifest::from_element(&bad).is_err());
        // Rows whose sum overflows (it wraps to the declared 0) are
        // refused, not added up.
        let half = (usize::MAX / 2 + 1).to_string();
        let overflow = Element::new("ChunkManifest")
            .with_attr("transfer_id", "1")
            .with_attr("total_rows", "0")
            .with_child(Element::new("Chunk").with_attr("rows", half.clone()))
            .with_child(Element::new("Chunk").with_attr("rows", half));
        assert!(matches!(
            ChunkManifest::from_element(&overflow),
            Err(SoapError::Protocol { .. })
        ));
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = VoTable::new("empty", vec![VoColumn::new("id", VoType::Id)]);
        let limit = MessageLimits::paper_2002().max_message_bytes;
        assert_eq!(split(&t, limit, 0).unwrap(), vec![t.clone()]);
        let (_, spans) = encode(&t);
        assert!(matches!(
            split_table(&spans, MessageLimits::tiny(10)),
            Err(SoapError::MessageTooLarge { .. })
        ));
    }
}
