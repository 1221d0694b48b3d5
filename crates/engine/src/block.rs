//! On-device block format.
//!
//! A block holds `records_per_block` fixed-width records; a record is its
//! sort key followed by its record id, both little-endian `u64`s. The
//! final block of a run may be partially filled — the unused tail is
//! zeroed on write and ignored on read (the reader knows each run's
//! record count).

use pm_extsort::Record;

/// Bytes one encoded [`Record`] occupies.
pub const RECORD_BYTES: usize = 16;

/// Bytes one block occupies for the given records-per-block factor.
#[must_use]
pub fn block_bytes(records_per_block: u32) -> usize {
    records_per_block as usize * RECORD_BYTES
}

/// Encodes `records` into `buf` (zero-padding the tail). `buf` must hold
/// at least `records.len() * RECORD_BYTES` bytes.
///
/// # Panics
///
/// Panics if `buf` is too small.
pub fn encode_records(records: &[Record], buf: &mut [u8]) {
    assert!(buf.len() >= records.len() * RECORD_BYTES, "buffer too small");
    let (used, tail) = buf.split_at_mut(records.len() * RECORD_BYTES);
    for (chunk, rec) in used.chunks_exact_mut(RECORD_BYTES).zip(records) {
        chunk[..8].copy_from_slice(&rec.key.to_le_bytes());
        chunk[8..].copy_from_slice(&rec.rid.to_le_bytes());
    }
    tail.fill(0);
}

/// Decodes the first `count` records of an encoded block.
///
/// # Panics
///
/// Panics if `buf` holds fewer than `count` records.
#[must_use]
pub fn decode_records(buf: &[u8], count: usize) -> Vec<Record> {
    let mut out = Vec::with_capacity(count);
    decode_into(buf, count, &mut out);
    out
}

/// Decodes the first `count` records of an encoded block into `out`,
/// replacing its contents and reusing its capacity.
///
/// # Panics
///
/// Panics if `buf` holds fewer than `count` records.
pub(crate) fn decode_into(buf: &[u8], count: usize, out: &mut Vec<Record>) {
    assert!(buf.len() >= count * RECORD_BYTES, "buffer too small");
    out.clear();
    out.extend(
        buf[..count * RECORD_BYTES]
            .chunks_exact(RECORD_BYTES)
            .map(|chunk| {
                let key = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte key"));
                let rid = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte rid"));
                Record::new(key, rid)
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_partial_tail() {
        let records: Vec<Record> = (0..7).map(|i| Record::new(i * 3, 100 + i)).collect();
        let mut buf = vec![0xAAu8; block_bytes(10)];
        encode_records(&records, &mut buf);
        assert_eq!(decode_records(&buf, 7), records);
        // The tail past the encoded records is zeroed.
        assert!(buf[7 * RECORD_BYTES..].iter().all(|&b| b == 0));
    }

    #[test]
    fn decode_into_replaces_the_buffer_contents() {
        let records: Vec<Record> = (0..5).map(|i| Record::new(i, i + 1)).collect();
        let mut buf = vec![0u8; block_bytes(5)];
        encode_records(&records, &mut buf);
        let mut out = vec![Record::new(99, 99); 9];
        decode_into(&buf, 3, &mut out);
        assert_eq!(out, records[..3]);
    }
}
