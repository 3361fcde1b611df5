// S2 firing fixture: narrowing casts inside a decode path — a
// truncated length corrupts the artifact before any checksum sees it.
pub fn decode_frame(data: &[u8], declared_len: u64) -> (u32, u16) {
    let len = declared_len as u32;
    let width = data.len() as u16;
    (len, width)
}
