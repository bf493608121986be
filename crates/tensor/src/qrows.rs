//! Packed, growable quantized row storage for the KV cache.
//!
//! [`QuantRows`] holds a `rows × cols` table of signed quantized values at
//! 4 or 8 bits per element, packed densely (two INT4 values per byte), plus
//! an optional 2-bit group index per element (four groups, packed four per
//! byte). Rows are appended one at a time and are byte-aligned, so resident
//! and allocated footprints are exact multiples of the per-row byte counts.
//!
//! The store is deliberately dumb about *numerics*: it keeps integers and
//! group indices, nothing else. Scales, biases, and the quantize/dequantize
//! rules live with the caller (the decode engine's KV cache), which also
//! owns the Tender runtime-requantization policy. The one numeric operation
//! provided here is [`QuantRows::requant_shift`], the paper's "1-bit shift"
//! primitive: when the caller's `TMax` doubles `k` times, every element's
//! group index advances by `k`, and elements already pinned at the last
//! group have their stored values arithmetically shifted right (with
//! round-half-away-from-zero) by the doublings the index could not absorb.
//!
//! Reads come in two shapes: element and row accessors that return the
//! stored `(value, group)` pairs ([`QuantRows::get`],
//! [`QuantRows::row_iter`], both over one element decoder) for the
//! dequantizing and checked paths, and the whole-store
//! [`QuantRows::decode_shifted_into`], which folds each group's
//! power-of-two combine weight into its code so the integer attention
//! kernels dot a grouped page like an ungrouped one.

/// Bits per packed group index (supports up to four groups).
pub const GROUP_INDEX_BITS: usize = 2;

/// Maximum group count representable by the packed 2-bit index.
pub const MAX_PACKED_GROUPS: usize = 1 << GROUP_INDEX_BITS;

/// A growable table of packed signed quantized values with optional
/// per-element group indices. See the module docs for the storage model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantRows {
    cols: usize,
    bits: u32,
    rows: usize,
    /// Packed two's-complement values, `val_row_bytes` per row.
    vals: Vec<u8>,
    /// Packed 2-bit group indices, `group_row_bytes` per row (grouped mode).
    groups: Option<Vec<u8>>,
}

/// Signed-integer right shift rounding half away from zero, the hardware
/// requantization rule: `shift_round(5, 1) == 3`, `shift_round(-5, 1) == -3`.
///
/// Internally widens to i64: both the negate (for `i32::MIN`) and the
/// rounding-bias add (for values near `i32::MAX`) would overflow in i32.
/// Shifts of 32+ still round the largest magnitudes to zero, but a 31-bit
/// shift of `i32::MIN` correctly yields `-1`, not `0`.
fn shift_round(q: i32, s: u32) -> i32 {
    if s == 0 {
        return q;
    }
    let q = q as i64;
    let s = s.min(62);
    let half = 1i64 << (s - 1);
    let r = if q >= 0 {
        (q + half) >> s
    } else {
        -((-q + half) >> s)
    };
    r as i32
}

/// INT4 code `k` of a four-column quad (`vals`, nibble `k`) times its
/// four-group combine weight `2^(3 − tag)` (`tags`, bit pair `k`).
///
/// For a fixed `k` every shift is a constant, so a loop over a store's
/// quads vectorizes on targets without per-lane variable shifts (baseline
/// x86-64): the nibble sign-extends through a shift pair on `i16`, and the
/// weight 8 / 4 / 2 / 1 factors as `(4 − 3·(tag >> 1)) · (2 − (tag & 1))`.
#[inline(always)]
fn shifted_code(vals: u16, tags: u8, k: u32) -> i16 {
    let q = ((vals << (12 - 4 * k)) as i16) >> 12;
    let tag = ((tags >> (2 * k)) & 3) as i16;
    q * ((4 - 3 * (tag >> 1)) * (2 - (tag & 1)))
}

/// The stored `(value, group)` of column `c` of one row, from that row's
/// packed value bytes and (grouped mode) group-index bytes: the value
/// sign-extended from `bits` through a shift pair on `i8`, group 0 when the
/// store is ungrouped. The one element decoder under [`QuantRows::get`] and
/// [`RowIter`].
fn decode_element(vals: &[u8], groups: Option<&[u8]>, bits: u32, c: usize) -> (i32, usize) {
    let bit = c * bits as usize;
    let raw = (vals[bit / 8] >> (bit % 8)) & ((1u16 << bits) - 1) as u8;
    let shift = 8 - bits;
    let q = (((raw << shift) as i8) >> shift) as i32;
    let g = groups.map_or(0, |groups| {
        let gbit = c * GROUP_INDEX_BITS;
        ((groups[gbit / 8] >> (gbit % 8)) & (MAX_PACKED_GROUPS - 1) as u8) as usize
    });
    (q, g)
}

impl QuantRows {
    /// An empty store for `cols`-wide rows of `bits`-bit values, with space
    /// reserved for `row_capacity` rows. `grouped` adds the packed 2-bit
    /// group index plane.
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0` or `bits` is not 4 or 8.
    pub fn with_row_capacity(cols: usize, bits: u32, grouped: bool, row_capacity: usize) -> Self {
        assert!(cols > 0, "rows must have at least one column");
        assert!(bits == 4 || bits == 8, "unsupported element width {bits}");
        let mut s = Self {
            cols,
            bits,
            rows: 0,
            vals: Vec::new(),
            groups: grouped.then(Vec::new),
        };
        s.vals.reserve_exact(row_capacity * s.val_row_bytes());
        if let Some(g) = &mut s.groups {
            g.reserve_exact(row_capacity * Self::group_row_bytes(cols));
        }
        s
    }

    /// Packed value bytes per row.
    fn val_row_bytes(&self) -> usize {
        Self::packed_row_bytes(self.cols, self.bits, false)
    }

    /// Packed group-index bytes per row.
    fn group_row_bytes(cols: usize) -> usize {
        (cols * GROUP_INDEX_BITS).div_ceil(8)
    }

    /// Packed bytes of one `cols`-wide row of `bits`-bit values (plus the
    /// 2-bit group indices when `grouped`) — the storage format's row
    /// size, for byte accounting that has no store in hand.
    pub fn packed_row_bytes(cols: usize, bits: u32, grouped: bool) -> usize {
        (cols * bits as usize).div_ceil(8)
            + if grouped {
                Self::group_row_bytes(cols)
            } else {
                0
            }
    }

    /// Stored rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width in elements.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether the store carries a group-index plane.
    pub fn grouped(&self) -> bool {
        self.groups.is_some()
    }

    /// Whether no rows are stored yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows the current allocation can hold before growing.
    pub fn row_capacity(&self) -> usize {
        self.vals.capacity() / self.val_row_bytes()
    }

    /// Packed bytes per stored row (values plus group indices, if any).
    pub fn bytes_per_row(&self) -> usize {
        Self::packed_row_bytes(self.cols, self.bits, self.groups.is_some())
    }

    /// Appends one row of quantized values (and, in grouped mode, their
    /// group indices).
    ///
    /// # Panics
    ///
    /// Panics if `qs.len() != cols`, a value exceeds the signed range of
    /// `bits`, grouped mode is on but `gs.len() != cols`, or a group index
    /// exceeds [`MAX_PACKED_GROUPS`].
    pub fn push_row(&mut self, qs: &[i32], gs: &[u8]) {
        assert_eq!(qs.len(), self.cols, "row width mismatch");
        let lim = 1i32 << (self.bits - 1);
        let base = self.vals.len();
        self.vals.resize(base + self.val_row_bytes(), 0);
        for (c, &q) in qs.iter().enumerate() {
            assert!(
                (-lim..lim).contains(&q),
                "value {q} outside {}-bit range",
                self.bits
            );
            let bit = c * self.bits as usize;
            let mask = (1u32 << self.bits) - 1;
            self.vals[base + bit / 8] |= ((q as u32 & mask) << (bit % 8)) as u8;
        }
        if let Some(groups) = &mut self.groups {
            assert_eq!(gs.len(), self.cols, "group row width mismatch");
            let gbase = groups.len();
            groups.resize(gbase + Self::group_row_bytes(self.cols), 0);
            for (c, &g) in gs.iter().enumerate() {
                assert!(
                    (g as usize) < MAX_PACKED_GROUPS,
                    "group index {g} exceeds the packed 2-bit range"
                );
                let bit = c * GROUP_INDEX_BITS;
                groups[gbase + bit / 8] |= g << (bit % 8);
            }
        }
        self.rows += 1;
    }

    /// The quantized value and group index at `(r, c)` (group 0 when the
    /// store is ungrouped).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn get(&self, r: usize, c: usize) -> (i32, usize) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        decode_element(self.row_vals(r), self.row_groups(r), self.bits, c)
    }

    /// Overwrites the value at `(r, c)`, keeping its group index.
    fn set_val(&mut self, r: usize, c: usize, q: i32) {
        let lim = 1i32 << (self.bits - 1);
        debug_assert!((-lim..lim).contains(&q));
        let bit = r * self.val_row_bytes() * 8 + c * self.bits as usize;
        let mask = ((1u32 << self.bits) - 1) as u8;
        let shifted_mask = mask << (bit % 8);
        let byte = &mut self.vals[bit / 8];
        *byte = (*byte & !shifted_mask) | (((q as u32 & mask as u32) << (bit % 8)) as u8);
    }

    /// Overwrites the group index at `(r, c)` (grouped mode only).
    fn set_group(&mut self, r: usize, c: usize, g: usize) {
        debug_assert!(g < MAX_PACKED_GROUPS);
        let groups = self.groups.as_mut().expect("grouped store");
        let bit = r * Self::group_row_bytes(self.cols) * 8 + c * GROUP_INDEX_BITS;
        let mask = (MAX_PACKED_GROUPS - 1) as u8;
        let shifted_mask = mask << (bit % 8);
        let byte = &mut groups[bit / 8];
        *byte = (*byte & !shifted_mask) | ((g as u8 & mask) << (bit % 8));
    }

    /// Packed value bytes of row `r` (`val_row_bytes` of them).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_vals(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "row {r} out of range");
        let w = self.val_row_bytes();
        &self.vals[r * w..(r + 1) * w]
    }

    /// Packed 2-bit group-index bytes of row `r`, `None` when ungrouped.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_groups(&self, r: usize) -> Option<&[u8]> {
        assert!(r < self.rows, "row {r} out of range");
        let w = Self::group_row_bytes(self.cols);
        self.groups.as_ref().map(|g| &g[r * w..(r + 1) * w])
    }

    /// Iterator over `(value, group)` pairs of row `r`, in column order.
    ///
    /// Equivalent to `(0..cols).map(|c| self.get(r, c))` but pays the row
    /// bounds check once instead of per element — this is the read primitive
    /// the integer-domain attention kernels walk.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_iter(&self, r: usize) -> RowIter<'_> {
        RowIter {
            vals: self.row_vals(r),
            groups: self.row_groups(r),
            bits: self.bits,
            cols: self.cols,
            c: 0,
        }
    }

    /// Decodes the **whole store** into row-major `i16` codes, each already
    /// multiplied by its group's combine weight:
    /// `out[r · cols + c] = q(r, c) · 2^(groups − 1 − g(r, c))` (plain
    /// sign-extension when `groups == 1`).
    ///
    /// With α = 2 group scales the shift-combine `acc ← acc·2 + S_g` over
    /// per-group sums is the linear form `Σ_g 2^(groups−1−g) · S_g`, so a
    /// single-accumulator dot against these codes *is* the combined sum —
    /// a four-group INT4 row reads like an ungrouped narrow row. The largest
    /// magnitude is |−8·8| = 64 for INT4 with four groups and |−128·8| =
    /// 1,024 for a grouped INT8 store, so `i16` always suffices.
    ///
    /// `groups` is the caller's group count (the length of the page's scale
    /// snapshot); every stored tag is below it by construction
    /// (`classify_channels(…, groups)` at encode, `requant_shift(…, groups)`
    /// afterwards), which debug builds assert.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != rows · cols`, `groups` is outside
    /// `1..=MAX_PACKED_GROUPS`, or `groups > 1` on an ungrouped store.
    pub fn decode_shifted_into(&self, groups: usize, out: &mut [i16]) {
        assert_eq!(out.len(), self.rows * self.cols, "code scratch mismatch");
        assert!(
            (1..=MAX_PACKED_GROUPS).contains(&groups),
            "group count {groups} outside the packed range"
        );
        assert!(
            groups == 1 || self.groups.is_some(),
            "{groups} groups on an ungrouped store"
        );
        match (&self.groups, self.bits) {
            // Ungrouped INT8 rows carry no padding: the store is one run of
            // sign-extended bytes.
            (None, 8) => {
                for (o, &b) in out.iter_mut().zip(&self.vals) {
                    *o = b as i8 as i16;
                }
            }
            // Four-group INT4 rows of whole quads carry no padding either:
            // little-endian u16 `m` of the values and byte `m` of the tags
            // hold the same four columns across the whole store.
            (Some(tags), 4) if groups == MAX_PACKED_GROUPS && self.cols.is_multiple_of(4) => {
                let (quads, _) = out.as_chunks_mut::<4>();
                let (vals, _) = self.vals.as_chunks::<2>();
                for ((quad, &v), &t) in quads.iter_mut().zip(vals).zip(tags) {
                    let v = u16::from_le_bytes(v);
                    // Four plain stores, not `array::from_fn`: this shape is
                    // what the vectorizer turns into interleaved stores.
                    quad[0] = shifted_code(v, t, 0);
                    quad[1] = shifted_code(v, t, 1);
                    quad[2] = shifted_code(v, t, 2);
                    quad[3] = shifted_code(v, t, 3);
                }
            }
            _ => {
                for (r, row) in out.chunks_exact_mut(self.cols).enumerate() {
                    for (o, (q, g)) in row.iter_mut().zip(self.row_iter(r)) {
                        debug_assert!(g < groups, "tag {g} outside {groups} groups");
                        // |q| ≤ 128 and the shift is at most 3: fits i16.
                        *o = (q << (groups - 1 - g)) as i16;
                    }
                }
            }
        }
    }

    /// Applies `k` caller-side `TMax` doublings to every stored element
    /// (Tender's runtime requantization, Eq. 3 / §IV of the paper).
    ///
    /// With power-of-two group scales, doubling `TMax` makes old group `g`
    /// and new group `g + 1` share the same absolute scale, so most
    /// elements requantize by *index increment alone* — no value change.
    /// Only the doublings the index cannot absorb (it saturates at
    /// `group_cap - 1`; in ungrouped stores that is every doubling) fall
    /// through to an arithmetic right shift of the stored value, rounded
    /// half away from zero — the 1-bit-shift-per-doubling hardware rule.
    ///
    /// # Panics
    ///
    /// Panics if `group_cap == 0` or exceeds [`MAX_PACKED_GROUPS`].
    pub fn requant_shift(&mut self, k: u32, group_cap: usize) {
        assert!(
            (1..=MAX_PACKED_GROUPS).contains(&group_cap),
            "group cap {group_cap} outside the packed range"
        );
        if k == 0 || self.rows == 0 {
            return;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let (q, g) = self.get(r, c);
                let target = (g as u64).saturating_add(k as u64);
                let new_g = target.min(group_cap as u64 - 1) as usize;
                let leftover = (target - new_g as u64).min(31) as u32;
                if self.groups.is_some() && new_g != g {
                    self.set_group(r, c, new_g);
                }
                if leftover > 0 && q != 0 {
                    self.set_val(r, c, shift_round(q, leftover));
                }
            }
        }
    }
}

/// Borrowed `(value, group)` walk over one packed row; see
/// [`QuantRows::row_iter`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    vals: &'a [u8],
    groups: Option<&'a [u8]>,
    bits: u32,
    cols: usize,
    c: usize,
}

impl Iterator for RowIter<'_> {
    type Item = (i32, usize);

    fn next(&mut self) -> Option<(i32, usize)> {
        if self.c >= self.cols {
            return None;
        }
        let c = self.c;
        self.c += 1;
        Some(decode_element(self.vals, self.groups, self.bits, c))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cols - self.c;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_and_round_trips_int8() {
        let mut s = QuantRows::with_row_capacity(3, 8, false, 4);
        s.push_row(&[-128, 0, 127], &[]);
        s.push_row(&[5, -5, 77], &[]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 0), (-128, 0));
        assert_eq!(s.get(0, 2), (127, 0));
        assert_eq!(s.get(1, 1), (-5, 0));
        assert_eq!(s.bytes_per_row(), 3);
    }

    #[test]
    fn packs_and_round_trips_int4_with_groups() {
        let mut s = QuantRows::with_row_capacity(5, 4, true, 4);
        s.push_row(&[-8, 7, -1, 3, 0], &[0, 1, 2, 3, 1]);
        assert_eq!(s.get(0, 0), (-8, 0));
        assert_eq!(s.get(0, 1), (7, 1));
        assert_eq!(s.get(0, 2), (-1, 2));
        assert_eq!(s.get(0, 3), (3, 3));
        assert_eq!(s.get(0, 4), (0, 1));
        // 5 nibbles → 3 value bytes; 5 × 2-bit indices → 2 group bytes.
        assert_eq!(s.bytes_per_row(), 5);
    }

    #[test]
    fn capacity_is_preallocated_and_growable() {
        let mut s = QuantRows::with_row_capacity(4, 8, false, 2);
        assert!(s.row_capacity() >= 2);
        for _ in 0..5 {
            s.push_row(&[1, 2, 3, 4], &[]);
        }
        assert_eq!(s.rows(), 5);
        assert!(s.row_capacity() >= 5, "push past capacity must grow");
    }

    #[test]
    fn requant_shift_increments_groups_before_shifting_values() {
        let mut s = QuantRows::with_row_capacity(3, 4, true, 2);
        s.push_row(&[7, -6, 5], &[0, 2, 3]);
        s.requant_shift(1, 4);
        // Group 0 → 1 and 2 → 3 absorb the doubling; group 3 is pinned, so
        // its value shifts: round(5/2) half away from zero = 3.
        assert_eq!(s.get(0, 0), (7, 1));
        assert_eq!(s.get(0, 1), (-6, 3));
        assert_eq!(s.get(0, 2), (3, 3));
    }

    #[test]
    fn ungrouped_requant_shifts_every_value() {
        let mut s = QuantRows::with_row_capacity(4, 8, false, 1);
        s.push_row(&[100, -100, 3, -3], &[]);
        s.requant_shift(1, 1);
        assert_eq!(s.get(0, 0).0, 50);
        assert_eq!(s.get(0, 1).0, -50);
        // Half away from zero: 3 → 2 (1.5 rounds to 2), -3 → -2.
        assert_eq!(s.get(0, 2).0, 2);
        assert_eq!(s.get(0, 3).0, -2);
    }

    #[test]
    fn huge_shift_zeroes_values() {
        let mut s = QuantRows::with_row_capacity(2, 8, false, 1);
        s.push_row(&[127, -127], &[]);
        s.requant_shift(130, 1);
        assert_eq!(s.get(0, 0).0, 0);
        assert_eq!(s.get(0, 1).0, 0);
    }

    #[test]
    fn shift_round_is_half_away_from_zero() {
        assert_eq!(shift_round(5, 1), 3);
        assert_eq!(shift_round(-5, 1), -3);
        assert_eq!(shift_round(4, 1), 2);
        assert_eq!(shift_round(6, 2), 2); // 1.5 → 2
        assert_eq!(shift_round(-6, 2), -2);
        assert_eq!(shift_round(0, 7), 0);
        assert_eq!(shift_round(9, 0), 9);
    }

    #[test]
    fn shift_round_survives_i32_extremes() {
        // The i32-internal version overflowed on `-q` for `i32::MIN` and on
        // `q + half` near `i32::MAX`; the i64-internal rule must not.
        assert_eq!(shift_round(i32::MIN, 1), -(1 << 30));
        assert_eq!(shift_round(i32::MAX, 1), 1 << 30);
        // s == 31 used to early-return 0; i32::MIN / 2^31 = -1 exactly.
        assert_eq!(shift_round(i32::MIN, 31), -1);
        assert_eq!(shift_round(i32::MAX, 31), 1);
        // Past the value width everything rounds to zero.
        assert_eq!(shift_round(i32::MIN, 32), -1);
        assert_eq!(shift_round(i32::MAX, 32), 0);
        assert_eq!(shift_round(i32::MIN, 62), 0);
        assert_eq!(shift_round(i32::MAX, u32::MAX), 0);
    }

    #[test]
    fn row_iter_matches_get() {
        let mut s8 = QuantRows::with_row_capacity(5, 8, false, 2);
        s8.push_row(&[-128, 0, 127, 5, -5], &[]);
        s8.push_row(&[1, -2, 3, -4, 5], &[]);
        let mut s4 = QuantRows::with_row_capacity(5, 4, true, 2);
        s4.push_row(&[-8, 7, -1, 3, 0], &[0, 1, 2, 3, 1]);
        s4.push_row(&[2, -3, 4, -5, 6], &[3, 0, 1, 2, 0]);
        for s in [&s8, &s4] {
            for r in 0..s.rows() {
                let walked: Vec<(i32, usize)> = s.row_iter(r).collect();
                let gotten: Vec<(i32, usize)> = (0..s.cols()).map(|c| s.get(r, c)).collect();
                assert_eq!(walked, gotten, "row_iter diverges from get at row {r}");
            }
        }
    }

    /// `decode_shifted_into` against its definition over [`QuantRows::get`].
    fn assert_shifted_decode_matches_get(s: &QuantRows, groups: usize) {
        let mut codes = vec![i16::MIN; s.rows() * s.cols()];
        s.decode_shifted_into(groups, &mut codes);
        for (i, &code) in codes.iter().enumerate() {
            let (q, g) = s.get(i / s.cols(), i % s.cols());
            assert_eq!(code as i32, q << (groups - 1 - g), "element {i}");
        }
    }

    #[test]
    fn shifted_quad_decode_is_exhaustively_the_shifted_get() {
        // Every value byte × every tag nibble, in both halves of a quad.
        let nibble = |n: u8| (((n << 4) as i8) >> 4) as i32;
        let mut s = QuantRows::with_row_capacity(4, 4, true, 256 * 16);
        for b in 0..=255u8 {
            let (lo, hi) = (nibble(b & 0xF), nibble(b >> 4));
            for t in 0..16u8 {
                s.push_row(&[lo, hi, lo, hi], &[t & 3, t >> 2, t & 3, t >> 2]);
            }
        }
        assert_shifted_decode_matches_get(&s, 4);
    }

    #[test]
    fn shifted_decode_matches_get_at_every_width_and_grouping() {
        // Whole quads, ragged rows and a single column; every (bits, groups)
        // a page can carry, the full code range in every group.
        for (bits, groups) in [(8u32, 1usize), (4, 1), (4, 4), (4, 2), (8, 4), (8, 3)] {
            for cols in [1usize, 4, 7, 8, 19] {
                let lim = 1i32 << (bits - 1);
                let mut s = QuantRows::with_row_capacity(cols, bits, groups > 1, 6);
                for r in 0..6 {
                    let qs: Vec<i32> = (0..cols)
                        .map(|c| ((r * 53 + c * 29) as i32 % (2 * lim)) - lim)
                        .collect();
                    let gs: Vec<u8> = (0..if groups > 1 { cols } else { 0 })
                        .map(|c| ((r * 3 + c) % groups) as u8)
                        .collect();
                    s.push_row(&qs, &gs);
                }
                assert_shifted_decode_matches_get(&s, groups);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tag 3 outside 2 groups")]
    fn shifted_decode_rejects_a_tag_past_the_group_count_in_debug() {
        let mut s = QuantRows::with_row_capacity(2, 4, true, 1);
        s.push_row(&[1, -1], &[0, 3]);
        s.decode_shifted_into(2, &mut [0i16; 2]);
    }

    #[test]
    #[should_panic(expected = "outside 4-bit range")]
    fn rejects_out_of_range_values() {
        let mut s = QuantRows::with_row_capacity(1, 4, false, 1);
        s.push_row(&[8], &[]);
    }
}
