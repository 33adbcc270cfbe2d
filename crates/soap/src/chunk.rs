//! Chunked transfer of large result tables.
//!
//! The deployed SkyQuery hit a hard wall: "The XML parser at the SkyNode
//! would run out of memory while parsing SOAP messages of about 10 MB. We
//! worked around by dividing large data sets into smaller chunks" (§6).
//!
//! [`MessageLimits`] models the parser's capacity; senders use
//! [`split_table`] to produce chunks whose encoded envelopes stay under
//! the limit, tagging each with a [`ChunkHeader`]; receivers place chunks
//! by header index and concatenate them ([`VoTable::concat`] checks schema
//! consistency). The federation's receiver is `core::transfer::ChunkStream`,
//! which additionally checks every chunk against a [`ChunkManifest`].

use skyquery_xml::{Element, VoColumn, VoTable, VoType};

use crate::SoapError;

/// Name of the synthetic column zone-aware chunks carry in first
/// position: each row's index in the original (pre-split) table, so the
/// receiver can restore the sender's row order after the zone sort.
pub const SEQ_COLUMN: &str = "__seq";

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

/// Sequence metadata accompanying each chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Zero-based index of this chunk.
    pub index: usize,
    /// Total number of chunks in the transfer.
    pub total: usize,
    /// A transfer id so interleaved transfers cannot mix.
    pub transfer_id: u64,
}

/// The inclusive declination-zone range a chunk covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneRange {
    /// Lowest zone index present in the chunk.
    pub lo: u32,
    /// Highest zone index present in the chunk.
    pub hi: u32,
}

/// Per-chunk metadata advertised up front by a chunked transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Row count of the chunk.
    pub rows: usize,
    /// Zone range covered (None for legacy byte-budget chunks).
    pub zones: Option<ZoneRange>,
}

/// The typed envelope of a chunked transfer: everything a receiver needs
/// to drive the `FetchChunk` continuation — the transfer id, the chunk
/// count and per-chunk row counts, and (for zone-aware transfers) each
/// chunk's declination-zone range, so the receiver can start processing
/// completed zones before later chunks arrive.
///
/// Replaces the untyped `chunked`/`transfer_id`/`chunks` result triple
/// the Cross match response used to carry.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkManifest {
    /// Transfer id the chunks must be fetched under.
    pub transfer_id: u64,
    /// Total rows across all chunks.
    pub total_rows: usize,
    /// Zone height the sender sorted by; `Some` marks a zone-aware
    /// transfer whose chunks carry the [`SEQ_COLUMN`].
    pub zone_height_deg: Option<f64>,
    /// One entry per chunk, in fetch order.
    pub chunks: Vec<ChunkInfo>,
}

impl ChunkManifest {
    /// A manifest for a legacy byte-budget split (no zone sort, no
    /// sequence column).
    pub fn legacy(transfer_id: u64, chunk_rows: &[usize]) -> ChunkManifest {
        ChunkManifest {
            transfer_id,
            total_rows: chunk_rows.iter().sum(),
            zone_height_deg: None,
            chunks: chunk_rows
                .iter()
                .map(|&rows| ChunkInfo { rows, zones: None })
                .collect(),
        }
    }

    /// Number of chunks in the transfer.
    pub fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether chunks are zone-sorted and carry the [`SEQ_COLUMN`].
    pub fn is_zoned(&self) -> bool {
        self.zone_height_deg.is_some()
    }

    /// Serializes to the wire element.
    pub fn to_element(&self) -> Element {
        let mut e = Element::new("ChunkManifest")
            .with_attr("transfer_id", self.transfer_id.to_string())
            .with_attr("total_rows", self.total_rows.to_string());
        if let Some(h) = self.zone_height_deg {
            e = e.with_attr("zone_height_deg", format!("{h:?}"));
        }
        for c in &self.chunks {
            let mut ce = Element::new("Chunk").with_attr("rows", c.rows.to_string());
            if let Some(z) = c.zones {
                ce = ce
                    .with_attr("zone_lo", z.lo.to_string())
                    .with_attr("zone_hi", z.hi.to_string());
            }
            e = e.with_child(ce);
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
        let zone_height_deg = match e.attr("zone_height_deg") {
            Some(v) => Some(v.parse::<f64>().map_err(|_| SoapError::Protocol {
                detail: "bad zone_height_deg in ChunkManifest".into(),
            })?),
            None => None,
        };
        let mut chunks = Vec::new();
        for ce in e.children_named("Chunk") {
            let rows = ce
                .attr("rows")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| SoapError::Protocol {
                    detail: "Chunk missing rows".into(),
                })?;
            let zones = match (ce.attr("zone_lo"), ce.attr("zone_hi")) {
                (Some(lo), Some(hi)) => Some(ZoneRange {
                    lo: lo.parse().map_err(|_| SoapError::Protocol {
                        detail: "bad zone_lo".into(),
                    })?,
                    hi: hi.parse().map_err(|_| SoapError::Protocol {
                        detail: "bad zone_hi".into(),
                    })?,
                }),
                _ => None,
            };
            chunks.push(ChunkInfo { rows, zones });
        }
        if chunks.is_empty() {
            return Err(SoapError::Protocol {
                detail: "ChunkManifest has no chunks".into(),
            });
        }
        // The counts come off the wire: a hostile peer can make the sum
        // overflow, so add with a check.
        let declared = chunks
            .iter()
            .try_fold(0usize, |sum, c| sum.checked_add(c.rows));
        if declared != Some(total_rows) {
            return Err(SoapError::Protocol {
                detail: "ChunkManifest row counts do not sum to total_rows".into(),
            });
        }
        Ok(ChunkManifest {
            transfer_id,
            total_rows,
            zone_height_deg,
            chunks,
        })
    }
}

/// Splits a table into chunks whose *encoded* size stays under the limit.
///
/// The row budget is estimated from the actual encoded size of the full
/// table and then verified per chunk; if a pathological row still exceeds
/// the limit on its own, an error is returned (there is no way to ship it
/// through the 2002 parser).
pub fn split_table(
    table: &VoTable,
    limits: MessageLimits,
    transfer_id: u64,
) -> Result<Vec<(ChunkHeader, VoTable)>, SoapError> {
    // Fast path: already small enough.
    let full_len = table.to_xml().len();
    if full_len <= limits.max_message_bytes {
        return Ok(vec![(
            ChunkHeader {
                index: 0,
                total: 1,
                transfer_id,
            },
            table.clone(),
        )]);
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
        let mut ok = true;
        for t in &tables {
            if t.to_xml().len() > limits.max_message_bytes {
                ok = false;
                break;
            }
        }
        if ok {
            let total = tables.len();
            return Ok(tables
                .into_iter()
                .enumerate()
                .map(|(index, t)| {
                    (
                        ChunkHeader {
                            index,
                            total,
                            transfer_id,
                        },
                        t,
                    )
                })
                .collect());
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

/// Splits a table into zone-aligned chunks under the byte limit.
///
/// `zones[i]` is the declination-zone label of row `i` (computed by the
/// caller from each tuple's maximum-likelihood position). Rows are
/// stable-sorted by zone and packed greedily so that **no zone is split
/// across chunks** — a chunk holds whole zones, except when a single
/// zone alone exceeds the byte budget and must be cut mid-zone. Each
/// chunk carries a leading [`SEQ_COLUMN`] with the row's original index,
/// letting the receiver restore the sender's row order exactly.
///
/// Returns the [`ChunkManifest`] (with per-chunk [`ZoneRange`]s) and the
/// chunk tables in fetch order.
pub fn split_table_zoned(
    table: &VoTable,
    limits: MessageLimits,
    transfer_id: u64,
    zones: &[u32],
    zone_height_deg: f64,
) -> Result<(ChunkManifest, Vec<(ChunkHeader, VoTable)>), SoapError> {
    if zones.len() != table.row_count() {
        return Err(SoapError::Chunking {
            detail: format!(
                "{} zone labels for a {}-row table",
                zones.len(),
                table.row_count()
            ),
        });
    }
    // Stable sort keeps original row order within each zone.
    let mut order: Vec<usize> = (0..table.row_count()).collect();
    order.sort_by_key(|&i| zones[i]);

    let mut columns = vec![VoColumn::new(SEQ_COLUMN, VoType::Id)];
    columns.extend(table.columns.iter().cloned());
    let make_chunk = |idxs: &[usize]| -> VoTable {
        let mut t = VoTable::new(table.name.clone(), columns.clone());
        for &i in idxs {
            let mut row = Vec::with_capacity(columns.len());
            row.push(Some(i.to_string()));
            row.extend(table.rows[i].iter().cloned());
            t.push_row(row).expect("augmented row matches columns");
        }
        t
    };
    let finish = |tables: Vec<VoTable>,
                  groups: Vec<Vec<usize>>|
     -> (ChunkManifest, Vec<(ChunkHeader, VoTable)>) {
        let total = tables.len();
        let manifest = ChunkManifest {
            transfer_id,
            total_rows: table.row_count(),
            zone_height_deg: Some(zone_height_deg),
            chunks: groups
                .iter()
                .map(|idxs| ChunkInfo {
                    rows: idxs.len(),
                    zones: match (idxs.first(), idxs.last()) {
                        (Some(&a), Some(&b)) => Some(ZoneRange {
                            lo: zones[a],
                            hi: zones[b],
                        }),
                        _ => None,
                    },
                })
                .collect(),
        };
        let chunks = tables
            .into_iter()
            .enumerate()
            .map(|(index, t)| {
                (
                    ChunkHeader {
                        index,
                        total,
                        transfer_id,
                    },
                    t,
                )
            })
            .collect();
        (manifest, chunks)
    };

    // Fast path: the whole (seq-augmented) table fits in one chunk.
    let full = make_chunk(&order);
    let full_len = full.to_xml().len();
    if full_len <= limits.max_message_bytes {
        return Ok(finish(vec![full], vec![order]));
    }
    if table.row_count() == 0 {
        return Err(SoapError::MessageTooLarge {
            size: full_len,
            limit: limits.max_message_bytes,
        });
    }

    // Estimate a row budget from average encoded row size, then pack
    // whole zone groups and verify actual chunk sizes, shrinking on
    // failure exactly like `split_table`.
    let header_len = VoTable::new(table.name.clone(), columns.clone())
        .to_xml()
        .len();
    let avg_row = (full_len - header_len).max(1) as f64 / table.row_count() as f64;
    let budget = limits.max_message_bytes.saturating_sub(header_len);
    let mut rows_per_chunk = (((budget as f64 / avg_row) * 0.9) as usize).max(1);

    loop {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            // One zone's run of rows.
            let start = i;
            let zone = zones[order[i]];
            while i < order.len() && zones[order[i]] == zone {
                i += 1;
            }
            let run = &order[start..i];
            if run.len() >= rows_per_chunk {
                // The zone alone fills (or overfills) a chunk: flush and
                // cut the zone itself into budget-sized pieces.
                if !current.is_empty() {
                    groups.push(std::mem::take(&mut current));
                }
                for piece in run.chunks(rows_per_chunk) {
                    groups.push(piece.to_vec());
                }
            } else if current.len() + run.len() > rows_per_chunk {
                groups.push(std::mem::take(&mut current));
                current.extend_from_slice(run);
            } else {
                current.extend_from_slice(run);
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }

        let tables: Vec<VoTable> = groups.iter().map(|idxs| make_chunk(idxs)).collect();
        if tables
            .iter()
            .all(|t| t.to_xml().len() <= limits.max_message_bytes)
        {
            return Ok(finish(tables, groups));
        }
        if rows_per_chunk == 1 {
            return Err(SoapError::Chunking {
                detail: "a single row exceeds the message size limit".into(),
            });
        }
        rows_per_chunk /= 2;
    }
}

/// Splits a zone-aware chunk into its original-row indices and the
/// payload table with the [`SEQ_COLUMN`] removed.
pub fn take_seq_column(table: &VoTable) -> Result<(Vec<u64>, VoTable), SoapError> {
    let first = table.columns.first();
    if first.map(|c| c.name.as_str()) != Some(SEQ_COLUMN) {
        return Err(SoapError::Chunking {
            detail: format!(
                "zone-aware chunk is missing the leading {SEQ_COLUMN} column (found {:?})",
                first.map(|c| c.name.clone())
            ),
        });
    }
    let mut seqs = Vec::with_capacity(table.row_count());
    let mut out = VoTable::new(table.name.clone(), table.columns[1..].to_vec());
    for row in &table.rows {
        let seq = row
            .first()
            .and_then(|c| c.as_deref())
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| SoapError::Chunking {
                detail: format!("chunk row has a malformed {SEQ_COLUMN} cell"),
            })?;
        seqs.push(seq);
        out.push_row(row[1..].to_vec()).map_err(SoapError::Xml)?;
    }
    Ok((seqs, out))
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
        let chunks = split_table(&t, MessageLimits::paper_2002(), 1).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].0.total, 1);
        assert_eq!(chunks[0].1, t);
    }

    #[test]
    fn large_table_chunks_under_limit_and_reassembles() {
        let t = big_table(200);
        let limits = MessageLimits::tiny(2000);
        let chunks = split_table(&t, limits, 42).unwrap();
        assert!(chunks.len() > 1, "expected multiple chunks");
        for (_, c) in &chunks {
            assert!(c.to_xml().len() <= limits.max_message_bytes);
        }
        for (i, (h, _)) in chunks.iter().enumerate() {
            assert_eq!((h.transfer_id, h.index, h.total), (42, i, chunks.len()));
        }
        let tables = chunks.into_iter().map(|(_, c)| c).collect();
        assert_eq!(VoTable::concat(tables).unwrap(), t);
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

    /// Zone labels cycling through a few zones so runs interleave.
    fn zone_labels(rows: usize, zones: u32) -> Vec<u32> {
        (0..rows)
            .map(|i| (i as u32 * zones) / rows as u32)
            .collect()
    }

    #[test]
    fn manifest_roundtrip() {
        let m = ChunkManifest {
            transfer_id: 17,
            total_rows: 120,
            zone_height_deg: Some(0.25),
            chunks: vec![
                ChunkInfo {
                    rows: 70,
                    zones: Some(ZoneRange { lo: 890, hi: 901 }),
                },
                ChunkInfo {
                    rows: 50,
                    zones: Some(ZoneRange { lo: 902, hi: 950 }),
                },
            ],
        };
        let back = ChunkManifest::from_element(&m.to_element()).unwrap();
        assert_eq!(back, m);
        assert!(back.is_zoned());
        assert_eq!(back.total_chunks(), 2);

        let legacy = ChunkManifest::legacy(3, &[40, 40, 7]);
        let back = ChunkManifest::from_element(&legacy.to_element()).unwrap();
        assert_eq!(back, legacy);
        assert!(!back.is_zoned());
        assert_eq!(back.total_rows, 87);
        assert_eq!(back.chunks[0].zones, None);
    }

    #[test]
    fn manifest_rejects_malformed() {
        use skyquery_xml::Element;
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
    fn zoned_split_respects_zone_boundaries_and_restores_order() {
        let t = big_table(200);
        let zones = zone_labels(200, 9);
        let limits = MessageLimits::tiny(2500);
        let (manifest, chunks) = split_table_zoned(&t, limits, 5, &zones, 0.1).unwrap();
        assert!(chunks.len() > 1, "expected multiple chunks");
        assert_eq!(manifest.total_chunks(), chunks.len());
        assert_eq!(manifest.total_rows, 200);
        assert!(manifest.is_zoned());

        let mut rows_by_seq: Vec<Option<Vec<Option<String>>>> = vec![None; 200];
        let mut prev_hi: Option<u32> = None;
        for ((header, chunk), info) in chunks.iter().zip(&manifest.chunks) {
            // Every chunk admits.
            assert!(chunk.to_xml().len() <= limits.max_message_bytes);
            assert_eq!(header.total, chunks.len());
            assert_eq!(header.transfer_id, 5);
            assert_eq!(chunk.row_count(), info.rows);
            let (seqs, payload) = take_seq_column(chunk).unwrap();
            assert_eq!(payload.columns, t.columns);
            let z = info.zones.unwrap();
            for (seq, row) in seqs.iter().zip(&payload.rows) {
                let zone = zones[*seq as usize];
                assert!(z.lo <= zone && zone <= z.hi, "row outside declared range");
                assert!(rows_by_seq[*seq as usize].is_none(), "duplicate seq {seq}");
                rows_by_seq[*seq as usize] = Some(row.clone());
            }
            // Zone ranges ascend and never overlap: once a later chunk
            // starts, it never re-opens an earlier zone unless that zone
            // itself was cut (lo == previous hi is the mid-zone case).
            if let Some(p) = prev_hi {
                assert!(z.lo >= p, "zone {} reopened after {}", z.lo, p);
            }
            prev_hi = Some(z.hi);
        }
        // The union of sequence numbers is exactly 0..200, and replaying
        // rows by seq restores the original table byte for byte.
        let restored: Vec<Vec<Option<String>>> =
            rows_by_seq.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(restored, t.rows);
    }

    #[test]
    fn zoned_split_small_table_single_chunk() {
        let t = big_table(3);
        let (manifest, chunks) =
            split_table_zoned(&t, MessageLimits::paper_2002(), 1, &[2, 0, 1], 0.1).unwrap();
        assert_eq!(chunks.len(), 1);
        let (seqs, payload) = take_seq_column(&chunks[0].1).unwrap();
        // Rows come zone-sorted: zones 0, 1, 2 are original rows 1, 2, 0.
        assert_eq!(seqs, vec![1, 2, 0]);
        assert_eq!(payload.rows[0], t.rows[1]);
        assert_eq!(manifest.chunks[0].zones, Some(ZoneRange { lo: 0, hi: 2 }));
    }

    #[test]
    fn zoned_split_oversized_zone_is_cut() {
        // All 200 rows in one zone: chunks must cut mid-zone but still fit.
        let t = big_table(200);
        let limits = MessageLimits::tiny(2500);
        let (manifest, chunks) = split_table_zoned(&t, limits, 2, &vec![7; 200], 0.1).unwrap();
        assert!(chunks.len() > 1);
        for (_, c) in &chunks {
            assert!(c.to_xml().len() <= limits.max_message_bytes);
        }
        for info in &manifest.chunks {
            assert_eq!(info.zones, Some(ZoneRange { lo: 7, hi: 7 }));
        }
    }

    #[test]
    fn zoned_split_errors() {
        let t = big_table(10);
        // Label count mismatch.
        assert!(matches!(
            split_table_zoned(&t, MessageLimits::paper_2002(), 0, &[1, 2], 0.1),
            Err(SoapError::Chunking { .. })
        ));
        // Single giant row cannot ship.
        let mut giant = VoTable::new("x", vec![VoColumn::new("blob", VoType::Text)]);
        giant.push_row(vec![Some("y".repeat(5000))]).unwrap();
        assert!(matches!(
            split_table_zoned(&giant, MessageLimits::tiny(1000), 0, &[0], 0.1),
            Err(SoapError::Chunking { .. })
        ));
    }

    #[test]
    fn take_seq_column_rejects_plain_chunks() {
        let t = big_table(5);
        assert!(take_seq_column(&t).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = VoTable::new("empty", vec![VoColumn::new("id", VoType::Id)]);
        let chunks = split_table(&t, MessageLimits::paper_2002(), 0).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!((chunks[0].0.index, chunks[0].0.total), (0, 1));
        assert_eq!(chunks[0].1, t);
    }
}
