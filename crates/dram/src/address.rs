//! The paper's Figure 5 DRAM address mapping.
//!
//! IANUS maps physical addresses as **(MSB) Row – Channel – Bank – Column –
//! Offset (LSB)**. The row address indexes a PIM *tile*, so all data of one
//! tile shares a row address (no row conflicts during a tile's computation),
//! while the channel/bank bits in the middle spread each tile row across
//! every channel and bank (maximizing all-bank/all-channel parallelism), and
//! the column bits at the LSB keep each 1024-element matrix row inside a
//! single bank's processing unit.

use crate::GddrOrganization;

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Row (page) index inside the bank — also the PIM tile index.
    pub row: u64,
    /// Channel index.
    pub channel: u32,
    /// Bank index inside the channel.
    pub bank: u32,
    /// Column burst index inside the row.
    pub column: u32,
    /// Byte offset inside the burst.
    pub offset: u32,
}

/// Encoder/decoder for the Row–Channel–Bank–Column mapping of Figure 5.
///
/// # Examples
///
/// ```
/// use ianus_dram::{AddressMapping, GddrOrganization};
/// let map = AddressMapping::new(GddrOrganization::ianus_default());
/// let addr = 0xDEAD_BEEF;
/// let loc = map.decode(addr);
/// assert_eq!(map.encode(&loc), addr);
/// // Consecutive bursts stay in the same bank (column is LSB above offset):
/// let next = map.decode(addr & !0x1F);
/// let nn = map.decode((addr & !0x1F) + 32);
/// assert_eq!((next.channel, next.bank), (nn.channel, nn.bank));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    org: GddrOrganization,
    offset_bits: u32,
    column_bits: u32,
    bank_bits: u32,
    channel_bits: u32,
}

fn bits_for(n: u32) -> u32 {
    assert!(n.is_power_of_two(), "dimension {n} must be a power of two");
    n.trailing_zeros()
}

impl AddressMapping {
    /// Creates the mapping for a given organization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of the organization is not a power of two.
    pub fn new(org: GddrOrganization) -> Self {
        AddressMapping {
            org,
            offset_bits: bits_for(org.burst_bytes),
            column_bits: bits_for(org.row_bytes / org.burst_bytes),
            bank_bits: bits_for(org.banks_per_channel),
            channel_bits: bits_for(org.channels),
        }
    }

    /// The organization this mapping was built for.
    pub fn organization(&self) -> GddrOrganization {
        self.org
    }

    /// Decodes a physical byte address into a [`Location`].
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr;
        let offset = (a & ((1 << self.offset_bits) - 1)) as u32;
        a >>= self.offset_bits;
        let column = (a & ((1 << self.column_bits) - 1)) as u32;
        a >>= self.column_bits;
        let bank = (a & ((1 << self.bank_bits) - 1)) as u32;
        a >>= self.bank_bits;
        let channel = (a & ((1 << self.channel_bits) - 1)) as u32;
        a >>= self.channel_bits;
        Location {
            row: a,
            channel,
            bank,
            column,
            offset,
        }
    }

    /// Encodes a [`Location`] back into a physical byte address.
    pub fn encode(&self, loc: &Location) -> u64 {
        let mut a = loc.row;
        a = (a << self.channel_bits) | u64::from(loc.channel);
        a = (a << self.bank_bits) | u64::from(loc.bank);
        a = (a << self.column_bits) | u64::from(loc.column);
        (a << self.offset_bits) | u64::from(loc.offset)
    }

    /// Bytes covered by one row address across all channels and banks —
    /// i.e. the footprint of one PIM tile.
    ///
    /// With the default organization this is 2 KB × 16 banks × 8 channels
    /// = 256 KB, matching the Figure 4 tile of (16 × 8) rows × 1024 BF16.
    pub fn tile_bytes(&self) -> u64 {
        u64::from(self.org.row_bytes)
            * u64::from(self.org.banks_per_channel)
            * u64::from(self.org.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMapping {
        AddressMapping::new(GddrOrganization::ianus_default())
    }

    #[test]
    fn roundtrip_simple() {
        let m = map();
        for addr in [0u64, 31, 32, 2047, 2048, 1 << 20, (8u64 << 30) - 1] {
            assert_eq!(m.encode(&m.decode(addr)), addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn field_layout_matches_figure5() {
        let m = map();
        // offset: 5 bits, column: 6 bits, bank: 4, channel: 3, row above.
        let loc = m.decode(1 << 5);
        assert_eq!(loc.column, 1);
        let loc = m.decode(1 << 11);
        assert_eq!(loc.bank, 1);
        let loc = m.decode(1 << 15);
        assert_eq!(loc.channel, 1);
        let loc = m.decode(1 << 18);
        assert_eq!(loc.row, 1);
    }

    #[test]
    fn tile_shares_row_address() {
        let m = map();
        let tile = m.tile_bytes();
        assert_eq!(tile, 256 * 1024);
        // every byte in [0, tile) decodes to row 0
        for addr in (0..tile).step_by(4096) {
            assert_eq!(m.decode(addr).row, 0);
        }
        assert_eq!(m.decode(tile).row, 1);
    }

    #[test]
    fn matrix_row_stays_in_one_bank() {
        // 1024 BF16 = 2048 B = one DRAM row: consecutive addresses within
        // a 2 KB block must land in the same (channel, bank).
        let m = map();
        let base = 123 * 2048u64;
        let l0 = m.decode(base);
        for delta in (0..2048).step_by(32) {
            let l = m.decode(base + delta);
            assert_eq!((l.channel, l.bank, l.row), (l0.channel, l0.bank, l0.row));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut org = GddrOrganization::ianus_default();
        org.channels = 6;
        let _ = AddressMapping::new(org);
    }
}
