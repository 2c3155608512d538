//! Length-framed, checksummed records: the codec of Dovado's two
//! append-only files, the exploration journal (`dovado::persist`) and the
//! evaluation store's log ([`crate::store`]).
//!
//! ```text
//! record <len> <payload fnv1a> <header fnv1a>
//! <payload: len bytes>
//! ```
//!
//! The first checksum covers the payload bytes and the second the header
//! fields before it, so a damaged length is caught too. A reader walks a
//! file with [`next_frame`]: a whole record, a record the end of the file
//! cuts short, or damage. What a file does with the latter two is its own
//! policy — the journal refuses damage, the store skips it with
//! [`resync`].

use crate::hash::fnv1a;
use std::io::Write;

/// Tag opening every record header line.
pub const RECORD_TAG: &str = "record";

/// Longest header line: the tag, a `usize` length of up to 20 digits and
/// two 16-digit checksums, three spaces and the newline.
const MAX_HEADER_LEN: usize = RECORD_TAG.len() + 20 + 2 * 16 + 4;

/// Frames one record payload: header line, then the payload bytes.
pub fn frame_record(payload: &str) -> String {
    let mut record = Vec::with_capacity(MAX_HEADER_LEN + payload.len());
    record.extend_from_slice(payload.as_bytes());
    frame_in_place(&mut record, 0);
    String::from_utf8(record).expect("an ASCII header before a UTF-8 payload")
}

/// Frames the payload `buf[at..]` where it lies: its header line moves
/// in before it, so `buf[at..]` becomes the record [`frame_record`]
/// returns. A buffer reused from record to record frames without
/// allocating once it has grown to size.
pub fn frame_in_place(buf: &mut Vec<u8>, at: usize) {
    let mut header = [0u8; MAX_HEADER_LEN];
    let mut rest = &mut header[..];
    let payload = &buf[at..];
    write!(
        rest,
        "{RECORD_TAG} {} {:016x}",
        payload.len(),
        fnv1a(payload)
    )
    .expect("the header fits");
    let fields = MAX_HEADER_LEN - rest.len();
    let sum = fnv1a(&header[..fields]);
    let mut rest = &mut header[fields..];
    writeln!(rest, " {sum:016x}").expect("the header fits");
    let len = MAX_HEADER_LEN - rest.len();
    let header = &header[..len];
    let end = buf.len();
    buf.extend_from_slice(header);
    buf.copy_within(at..end, at + header.len());
    buf[at..at + header.len()].copy_from_slice(header);
}

/// What the bytes at a record boundary hold.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole record with matching checksums: its payload, then the
    /// bytes after it.
    Whole(&'a str, &'a [u8]),
    /// A record the end of the bytes cuts short.
    Torn,
    /// A complete header or record that fails its checks.
    Damaged,
}

/// Reads the record at the start of `bytes`.
pub fn next_frame(bytes: &[u8]) -> Frame<'_> {
    let Some(eol) = bytes.iter().position(|&b| b == b'\n') else {
        // No complete header line: a header cut short, unless the bytes
        // cannot begin one.
        let tag = format!("{RECORD_TAG} ");
        return if bytes.starts_with(tag.as_bytes()) || tag.as_bytes().starts_with(bytes) {
            Frame::Torn
        } else {
            Frame::Damaged
        };
    };
    let Some((len, sum)) = std::str::from_utf8(&bytes[..eol])
        .ok()
        .and_then(parse_record_header)
    else {
        return Frame::Damaged;
    };
    let rest = &bytes[eol + 1..];
    if rest.len() < len {
        return Frame::Torn;
    }
    let (payload, after) = rest.split_at(len);
    if fnv1a(payload) != sum {
        return Frame::Damaged;
    }
    match std::str::from_utf8(payload) {
        Ok(payload) => Frame::Whole(payload, after),
        Err(_) => Frame::Damaged,
    }
}

/// Offset of the next place a record header could start after the first
/// byte of `bytes`: where a reader that skips damage tries again.
pub fn resync(bytes: &[u8]) -> Option<usize> {
    let tag = RECORD_TAG.as_bytes();
    bytes
        .get(1..)?
        .windows(tag.len() + 1)
        .position(|w| w.starts_with(tag) && w[tag.len()] == b' ')
        .map(|at| at + 1)
}

/// `record <len> <payload sum> <header sum>` → `(len, payload sum)`,
/// when the header sum matches the fields before it.
fn parse_record_header(line: &str) -> Option<(usize, u64)> {
    let (fields, check) = line.rsplit_once(' ')?;
    if u64::from_str_radix(check, 16).ok()? != fnv1a(fields.as_bytes()) {
        return None;
    }
    let mut toks = fields
        .strip_prefix(RECORD_TAG)?
        .strip_prefix(' ')?
        .split(' ');
    let len = toks.next()?.parse().ok()?;
    let sum = u64::from_str_radix(toks.next()?, 16).ok()?;
    toks.next().is_none().then_some((len, sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_framed_record_reads_back_whole() {
        let two = frame_record("first\n") + &frame_record("second");
        let Frame::Whole(first, rest) = next_frame(two.as_bytes()) else {
            panic!("first record");
        };
        assert_eq!(first, "first\n");
        assert_eq!(next_frame(rest), Frame::Whole("second", b""));
    }

    #[test]
    fn framing_in_place_matches_a_fresh_record() {
        let mut buf = b"kept".to_vec();
        for payload in ["", "x", "two\nlines\n", &"y".repeat(100_000)] {
            buf.truncate(4);
            buf.extend_from_slice(payload.as_bytes());
            frame_in_place(&mut buf, 4);
            assert_eq!(&buf[..4], b"kept");
            assert_eq!(&buf[4..], frame_record(payload).as_bytes());
            assert_eq!(next_frame(&buf[4..]), Frame::Whole(payload, b""));
        }
    }

    #[test]
    fn cuts_are_torn_and_flips_are_damaged() {
        let one = frame_record("payload");
        for cut in 0..one.len() {
            assert_eq!(next_frame(&one.as_bytes()[..cut]), Frame::Torn, "cut {cut}");
        }
        for at in 0..one.len() {
            let mut bytes = one.clone().into_bytes();
            bytes[at] ^= 0x04;
            assert_ne!(
                next_frame(&bytes),
                Frame::Whole("payload", b""),
                "flip at {at}"
            );
        }
        assert_eq!(next_frame(b"garbage\n"), Frame::Damaged);
    }

    #[test]
    fn resync_finds_the_next_header_after_the_first_byte() {
        let one = frame_record("x");
        let bytes = format!("junk{one}{one}");
        assert_eq!(resync(bytes.as_bytes()), Some(4));
        assert_eq!(resync(&bytes.as_bytes()[4..]), Some(one.len()));
        assert_eq!(resync(one.as_bytes()), None);
        assert_eq!(resync(b""), None);
    }
}
