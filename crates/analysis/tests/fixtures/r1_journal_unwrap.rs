//! Clippy fixture for the retired cae-lint rule R1: an `unwrap` inside a
//! Result-returning journal replay helper; `unwrap_used` and
//! `unwrap_in_result` fire at line 8. The Option-returning neighbor stays
//! clean.
pub struct JournalError;

pub fn read_frame_len(buf: &[u8]) -> Result<u32, JournalError> {
    let raw: [u8; 4] = buf[..4].try_into().unwrap(); // line 8
    Ok(u32::from_le_bytes(raw))
}

pub fn read_frame_len_opt(buf: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(..4)?.try_into().ok()?))
}
