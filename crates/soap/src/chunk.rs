//! Chunked transfer of large result tables.
//!
//! The deployed SkyQuery hit a hard wall: "The XML parser at the SkyNode
//! would run out of memory while parsing SOAP messages of about 10 MB. We
//! worked around by dividing large data sets into smaller chunks" (§6).
//!
//! [`MessageLimits`] models the parser's capacity; senders use
//! [`split_table`] to produce chunks whose encoded envelopes stay under
//! the limit, announced by a [`ChunkManifest`]; receivers fetch the chunks
//! in manifest order and concatenate them ([`VoTable::concat`] checks
//! schema consistency). The federation's receiver is
//! `core::transfer::ChunkStream`, which additionally checks every chunk
//! against the manifest.

use skyquery_xml::{Element, VoTable};

use crate::SoapError;

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

    /// Parses the wire element. Attributes it does not know — the zone
    /// ranges an older sender declared — are ignored.
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

/// Splits a table into chunks whose *encoded* size stays under the limit,
/// returning the [`ChunkManifest`] that announces them under
/// `transfer_id` and the chunks in fetch order.
///
/// The row budget is estimated from the actual encoded size of the full
/// table and then verified per chunk; if a pathological row still exceeds
/// the limit on its own, an error is returned (there is no way to ship it
/// through the 2002 parser).
pub fn split_table(
    table: &VoTable,
    limits: MessageLimits,
    transfer_id: u64,
) -> Result<(ChunkManifest, Vec<VoTable>), SoapError> {
    let announce = |chunks: Vec<VoTable>| {
        let manifest = ChunkManifest {
            transfer_id,
            chunk_rows: chunks.iter().map(VoTable::row_count).collect(),
        };
        (manifest, chunks)
    };
    // Fast path: already small enough.
    let full_len = table.to_xml().len();
    if full_len <= limits.max_message_bytes {
        return Ok(announce(vec![table.clone()]));
    }
    if table.row_count() == 0 {
        // An empty table that still exceeds the limit means the schema
        // alone is too large — nothing to chunk.
        return Err(SoapError::MessageTooLarge {
            size: full_len,
            limit: limits.max_message_bytes,
        });
    }
    // Estimate rows per chunk from average encoded row size, with headroom.
    let header_len = {
        let empty = VoTable::new(table.name.clone(), table.columns.clone());
        empty.to_xml().len()
    };
    let avg_row = (full_len - header_len).max(1) as f64 / table.row_count() as f64;
    let budget = limits.max_message_bytes.saturating_sub(header_len);
    let mut rows_per_chunk = ((budget as f64 / avg_row) * 0.9) as usize;
    rows_per_chunk = rows_per_chunk.max(1);

    loop {
        let tables = table.chunk_rows(rows_per_chunk);
        // Verify every chunk admits; shrink and retry otherwise.
        if tables
            .iter()
            .all(|t| t.to_xml().len() <= limits.max_message_bytes)
        {
            return Ok(announce(tables));
        }
        if rows_per_chunk == 1 {
            // A single row exceeds the parser limit.
            return Err(SoapError::Chunking {
                detail: "a single row exceeds the message size limit".into(),
            });
        }
        rows_per_chunk /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_xml::{VoColumn, VoType};

    fn big_table(rows: usize) -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("id", VoType::Id),
                VoColumn::new("payload", VoType::Text),
            ],
        );
        for i in 0..rows {
            t.push_row(vec![
                Some(i.to_string()),
                Some(format!("row-{i}-{}", "x".repeat(40))),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn small_table_single_chunk() {
        let t = big_table(3);
        let (manifest, chunks) = split_table(&t, MessageLimits::paper_2002(), 1).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(manifest.chunk_rows, vec![3]);
        assert_eq!(chunks[0], t);
    }

    #[test]
    fn large_table_chunks_under_limit_and_reassembles() {
        let t = big_table(200);
        let limits = MessageLimits::tiny(2000);
        let (manifest, chunks) = split_table(&t, limits, 42).unwrap();
        assert!(chunks.len() > 1, "expected multiple chunks");
        for c in &chunks {
            assert!(c.to_xml().len() <= limits.max_message_bytes);
        }
        assert_eq!(manifest.transfer_id, 42);
        assert_eq!(manifest.total_chunks(), chunks.len());
        for (rows, c) in manifest.chunk_rows.iter().zip(&chunks) {
            assert_eq!(*rows, c.row_count());
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
        t.push_row(vec![Some("y".repeat(5000))]).unwrap();
        let err = split_table(&t, MessageLimits::tiny(1000), 0).unwrap_err();
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

        // An older sender's zone-aware manifest: its zone attributes are
        // ignored.
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
        let (manifest, chunks) = split_table(&t, MessageLimits::paper_2002(), 0).unwrap();
        assert_eq!(manifest.chunk_rows, vec![0]);
        assert_eq!(chunks, vec![t]);
    }
}
