//! CRC-32 (IEEE 802.3 polynomial, reflected) for frame guards.
//!
//! The ledger uses CRC-32 as a *torn-write and bit-rot detector*, not as a
//! cryptographic check — tamper evidence comes from the SHA-256 record
//! chain and the ECDSA checkpoints on top of it. CRC-32 detects all
//! single-bit errors and all burst errors up to 32 bits, which is exactly
//! the failure shape of an interrupted `write(2)`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `TABLES[0]` is the classic
/// byte-at-a-time table, and `TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes — so eight input bytes fold into the state
/// with eight independent lookups instead of a chain of eight.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into the running (pre-inverted) state.
#[inline]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Computes the CRC-32 of `data`, eight bytes per step and the tail one
/// byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time loop the sliced one replaced.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |c, &b| step(c, b))
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // A full-period LCG mod 2¹⁶: no pattern an 8-byte step could hide in.
        let mut x = 0x9E37u32;
        let data: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x = (x * 0x0DCD + 1) & 0xFFFF;
                (x >> 8) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}+{len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_always_detected() {
        let data = b"the peace accountability ledger".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(crc32(&m), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
