//! Cache geometry: size, associativity, and index arithmetic.

use core::fmt;

/// The shape of one cache: capacity, associativity, and line size.
///
/// The line size and set count must be powers of two so that set indexing
/// is a simple bit-field extraction, as in the modeled hardware. The index
/// width is computed once, when the geometry is built, so [`sets`],
/// [`set_index`] and [`tag`] are shifts and masks with no divide.
///
/// [`sets`]: CacheGeometry::sets
/// [`set_index`]: CacheGeometry::set_index
/// [`tag`]: CacheGeometry::tag
///
/// # Examples
///
/// ```
/// use bv_cache::CacheGeometry;
///
/// // The paper's single-thread LLC: 2 MB, 16-way, 64 B lines.
/// let llc = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
/// assert_eq!(llc.sets(), 2048);
/// assert_eq!(llc.index_bits(), 11);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: usize,
    ways: usize,
    line_bytes: usize,
    /// log2 of the set count.
    index_bits: u32,
}

impl CacheGeometry {
    /// The widest associativity a cache may have: the per-set validity
    /// and dirty masks of `SetEngine` and `BasicCache` are one `u64` each.
    pub const MAX_WAYS: usize = 64;

    /// Creates a geometry.
    ///
    /// The associativity need not be a power of two — the paper's 3 MB and
    /// 6 MB configurations add 8 ways to a 16-way baseline, giving 24-way
    /// caches — but the line size and the resulting set count must be, so
    /// that indexing remains a bit-field extraction.
    ///
    /// # Panics
    ///
    /// Panics with [`CacheGeometry::try_new`]'s message for any geometry
    /// it rejects.
    #[must_use]
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> CacheGeometry {
        CacheGeometry::try_new(size_bytes, ways, line_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a geometry, or describes why it cannot be built: the line
    /// size is not a power of two, the associativity is outside 1 to 64
    /// (the per-set masks are one `u64`), the size is not an exact
    /// multiple of `ways * line_bytes`, or the resulting set count is zero
    /// or not a power of two.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a one-line message.
    pub fn try_new(
        size_bytes: usize,
        ways: usize,
        line_bytes: usize,
    ) -> Result<CacheGeometry, String> {
        if !line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if ways == 0 {
            return Err("associativity must be at least 1".into());
        }
        if ways > CacheGeometry::MAX_WAYS {
            let max = CacheGeometry::MAX_WAYS;
            return Err(format!("associativity {ways} exceeds {max} ways"));
        }
        let set_bytes = ways
            .checked_mul(line_bytes)
            .filter(|&b| size_bytes.is_multiple_of(b))
            .ok_or_else(|| {
                format!("cache size {size_bytes} not a multiple of {ways} ways x {line_bytes} B")
            })?;
        let sets = size_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a nonzero power of two"));
        }
        Ok(CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
            index_bits: sets.trailing_zeros(),
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        1 << self.index_bits
    }

    /// Bits of the line address used as the set index.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Bits of the byte address used as the line offset.
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Set index for a line address (byte address >> offset bits).
    #[must_use]
    pub fn set_index(&self, line: u64) -> usize {
        (line & ((1 << self.index_bits) - 1)) as usize
    }

    /// Tag for a line address (the bits above the set index).
    #[must_use]
    pub fn tag(&self, line: u64) -> u64 {
        line >> self.index_bits
    }
}

impl fmt::Debug for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheGeometry({} KB, {}-way, {} sets, {} B lines)",
            self.size_bytes / 1024,
            self.ways,
            self.sets(),
            self.line_bytes
        )
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.size_bytes >= 1024 * 1024 && self.size_bytes.is_multiple_of(1024 * 1024) {
            write!(
                f,
                "{} MB {}-way",
                self.size_bytes / (1024 * 1024),
                self.ways
            )
        } else {
            write!(f, "{} KB {}-way", self.size_bytes / 1024, self.ways)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hierarchy_geometries() {
        let l1 = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(l1.sets(), 64);
        let l2 = CacheGeometry::new(256 * 1024, 8, 64);
        assert_eq!(l2.sets(), 512);
        let llc = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(llc.sets(), 2048);
        assert_eq!(llc.index_bits(), 11);
        assert_eq!(llc.offset_bits(), 6);
        let llc_mp = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(llc_mp.sets(), 4096);
    }

    #[test]
    fn set_index_and_tag_partition_the_address() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        let line: u64 = 0xabcd_1234;
        let rebuilt = (g.tag(line) << g.index_bits()) | g.set_index(line) as u64;
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn paper_3mb_is_24_way_with_2048_sets() {
        // Section VI.A: "We construct a 3MB cache by adding 8 ways to a
        // 2MB, 16-way baseline."
        let g = CacheGeometry::new(3 * 1024 * 1024, 24, 64);
        assert_eq!(g.sets(), 2048);
        let g6 = CacheGeometry::new(6 * 1024 * 1024, 24, 64);
        assert_eq!(g6.sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_non_divisible_size() {
        let _ = CacheGeometry::new(1000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3 * 64 * 16, 16, 64); // 3 sets
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        assert!(CacheGeometry::try_new(2 * 1024 * 1024, 16, 64).is_ok());
        assert!(CacheGeometry::try_new(64 * 64 * 4, CacheGeometry::MAX_WAYS, 64).is_ok());
        for (size, ways, line, want) in [
            (4096, 4, 48, "line size must be a power of two"),
            (4096, 0, 64, "associativity must be at least 1"),
            (128 * 64 * 4, 128, 64, "associativity 128 exceeds 64 ways"),
            (
                1000,
                4,
                64,
                "cache size 1000 not a multiple of 4 ways x 64 B",
            ),
            (0, 16, 64, "set count 0 must be a nonzero power of two"),
            (
                3 * 1024 * 1024,
                16,
                64,
                "set count 3072 must be a nonzero power of two",
            ),
        ] {
            assert_eq!(
                CacheGeometry::try_new(size, ways, line),
                Err(want.to_string())
            );
        }
    }

    #[test]
    fn shift_and_mask_indexing_matches_the_division_formulas() {
        let mut accepted = 0;
        for line_bytes in [1usize, 16, 32, 64, 128, 256] {
            for ways in 1..=CacheGeometry::MAX_WAYS {
                for size_kb in (1..=64).chain([96, 128, 192, 256, 384, 512, 768, 1024]) {
                    for size_bytes in [size_kb * 1024, size_kb * 1024 * 3, size_kb * 64] {
                        let Ok(g) = CacheGeometry::try_new(size_bytes, ways, line_bytes) else {
                            continue;
                        };
                        accepted += 1;
                        let sets = size_bytes / (ways * line_bytes);
                        assert_eq!(g.sets(), sets, "{g:?}");
                        assert_eq!(g.index_bits(), sets.trailing_zeros(), "{g:?}");
                        for line in [0u64, 1, 0x3f, 0xabcd_1234, 0x1234_5678_9abc, u64::MAX] {
                            assert_eq!(g.set_index(line), (line % sets as u64) as usize, "{g:?}");
                            assert_eq!(g.tag(line), line / sets as u64, "{g:?}");
                        }
                    }
                }
            }
        }
        // 24-way (the paper's 3 MB and 6 MB LLCs) is in the sweep.
        assert!(CacheGeometry::try_new(3 * 1024 * 1024, 24, 64).is_ok());
        assert!(accepted > 1000, "only {accepted} geometries accepted");
    }

    #[test]
    fn display_prefers_mb_for_large_caches() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
        assert_eq!(g.to_string(), "2 MB 16-way");
        let l1 = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(l1.to_string(), "32 KB 8-way");
    }
}
