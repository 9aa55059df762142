//! Value synthesis and compression: what a key's bytes look like and
//! what they cost to store compressed.
//!
//! A value is `spec.bytes` of deterministic data shaped by a
//! [`DataProfile`] (the same profiles the LLC traces use). The tier
//! never materializes the value; it chunks it into 64-byte cache lines,
//! synthesizes each chunk from `(key, chunk index)`, and runs the real
//! [`Bdi`] kernel over every chunk — so a tier's compression ratio is
//! the honest output of the hardware kernel over plausible bytes, not a
//! modeled constant.
//!
//! A key's size is pure in the key, so a replay sizes each distinct key
//! once through [`ValueSizes`] and answers every later fetch of it from
//! the table.

use bv_compress::{Bdi, CacheLine, Compressor, CACHE_LINE_BYTES};
use bv_trace::request::{RequestProfile, ValueSpec};

/// The two sizes an organization budgets against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueMeta {
    /// Logical (uncompressed) size in bytes.
    pub bytes: u32,
    /// Physical (BDI-compressed) size in bytes, 4-byte aligned per
    /// chunk; never larger than `bytes`.
    pub compressed: u32,
}

impl ValueMeta {
    /// Builds metadata from explicit sizes (tests, synthetic loads).
    ///
    /// # Panics
    ///
    /// Panics if `compressed` exceeds `bytes`: a compressed
    /// representation larger than the original would be stored raw.
    #[must_use]
    pub fn new(bytes: u32, compressed: u32) -> ValueMeta {
        assert!(
            compressed <= bytes,
            "compressed size {compressed} exceeds logical size {bytes}"
        );
        ValueMeta { bytes, compressed }
    }

    /// The compression ratio (1.0 = incompressible).
    #[must_use]
    pub fn ratio(self) -> f64 {
        f64::from(self.compressed) / f64::from(self.bytes.max(1))
    }
}

/// Compresses the value a key serves by running [`Bdi`] over each
/// synthesized 64-byte chunk and summing the per-chunk compressed
/// sizes (segment-aligned, clamped at the chunk size — hardware stores
/// an incompressible chunk raw).
///
/// Pure in `(key, spec)`: every tier in a comparison derives the same
/// [`ValueMeta`] for the same key, which the lockstep auditor relies
/// on, and a replay can size each distinct key once and reuse it.
///
/// # Examples
///
/// ```
/// use bv_kvcache::compress_value;
/// use bv_trace::request::ValueSpec;
/// use bv_trace::DataProfile;
///
/// let zero = compress_value(7, ValueSpec { bytes: 256, profile: DataProfile::Zero });
/// assert_eq!(zero.bytes, 256);
/// assert_eq!(zero.compressed, 16, "4 zero chunks at 1 segment each");
///
/// let raw = compress_value(7, ValueSpec { bytes: 256, profile: DataProfile::Random });
/// assert_eq!(raw.compressed, 256, "random bytes stay full size");
/// ```
#[must_use]
pub fn compress_value(key: u64, spec: ValueSpec) -> ValueMeta {
    let bdi = Bdi::new();
    let chunks = (spec.bytes as usize).div_ceil(CACHE_LINE_BYTES).max(1);
    let mut compressed = 0u32;
    for chunk in 0..chunks {
        // Chunk addresses are spread so neighboring chunks synthesize
        // independent data; the epoch is 0 because a key's bytes are
        // stable for its lifetime (puts rewrite the same distribution).
        let line: CacheLine = spec
            .profile
            .synthesize(key.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ chunk as u64, 0);
        compressed += bdi.compressed_size(&line).bytes() as u32;
    }
    ValueMeta::new(spec.bytes.max(64), compressed.min(spec.bytes.max(64)))
}

/// The most keys a [`ValueSizes`] table holds (12 MiB of slots; the
/// largest preset, `social`, needs 100k).
const MAX_SLOTS: u64 = 1 << 20;

/// One replay's table of [`compress_value`] results over a profile's
/// keyspace: the kernel runs on a key's first fetch, and every later
/// fetch of that key reads the slot.
///
/// Dense and indexed by key, sized [`RequestProfile::keys`] — a
/// [`RequestStream`](bv_trace::request::RequestStream) only yields keys
/// below that — but never past [`MAX_SLOTS`], so a hostile profile
/// cannot make the table allocate without bound. A key outside the
/// table is sized directly, uncached.
pub(crate) struct ValueSizes<'p> {
    profile: &'p RequestProfile,
    slots: Vec<Option<ValueMeta>>,
}

impl<'p> ValueSizes<'p> {
    /// An empty table over `profile`'s keyspace.
    pub(crate) fn new(profile: &'p RequestProfile) -> ValueSizes<'p> {
        ValueSizes {
            profile,
            slots: vec![None; profile.keys.min(MAX_SLOTS) as usize],
        }
    }

    /// `compress_value(key, profile.value_spec(key))`, computed at most
    /// once per in-range key.
    pub(crate) fn get(&mut self, key: u64) -> ValueMeta {
        let profile = self.profile;
        let size = || compress_value(key, profile.value_spec(key));
        match usize::try_from(key)
            .ok()
            .and_then(|k| self.slots.get_mut(k))
        {
            Some(slot) => *slot.get_or_insert_with(size),
            None => size(),
        }
    }

    /// How many keys the table holds, which is how many times it has
    /// run the kernel for in-range keys.
    #[cfg(test)]
    pub(crate) fn sized(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_trace::DataProfile;

    #[test]
    fn value_sizes_match_the_kernel_in_and_out_of_range() {
        for name in RequestProfile::NAMES {
            let profile = RequestProfile::by_name(name).expect("preset");
            let mut sizes = ValueSizes::new(&profile);
            let last = profile.keys - 1;
            let keys = [0, 1, last / 2, last, profile.keys, u64::MAX];
            for key in keys.into_iter().chain(keys) {
                assert_eq!(
                    sizes.get(key),
                    compress_value(key, profile.value_spec(key)),
                    "{name} key {key}"
                );
            }
            // Only the four in-range keys took a slot.
            assert_eq!(sizes.sized(), 4, "{name}");
        }
    }

    #[test]
    fn value_sizes_cap_the_table_not_the_keyspace() {
        let mut profile = RequestProfile::web();
        profile.keys = u64::MAX;
        let mut sizes = ValueSizes::new(&profile);
        assert_eq!(sizes.slots.len() as u64, MAX_SLOTS);
        let key = MAX_SLOTS + 5;
        assert_eq!(sizes.get(key), compress_value(key, profile.value_spec(key)));
    }

    #[test]
    fn compression_is_pure() {
        let spec = ValueSpec {
            bytes: 1024,
            profile: DataProfile::PointerLike,
        };
        assert_eq!(compress_value(99, spec), compress_value(99, spec));
    }

    #[test]
    fn profiles_order_by_compressibility() {
        let sized = |profile| {
            compress_value(
                3,
                ValueSpec {
                    bytes: 4096,
                    profile,
                },
            )
            .compressed
        };
        let zero = sized(DataProfile::Zero);
        let ptr = sized(DataProfile::PointerLike);
        let float = sized(DataProfile::FloatLike);
        let random = sized(DataProfile::Random);
        assert!(zero < ptr && ptr < float && float < random);
        assert_eq!(random, 4096);
    }

    #[test]
    fn compressed_never_exceeds_logical() {
        for profile in DataProfile::ALL {
            for bytes in [64u32, 128, 1024, 16384] {
                let meta = compress_value(17, ValueSpec { bytes, profile });
                assert!(meta.compressed <= meta.bytes, "{profile:?} {bytes}");
            }
        }
    }
}
