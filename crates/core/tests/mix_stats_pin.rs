//! Pins the MIX TLB's observable behaviour across its configuration space.
//!
//! A seeded sequence of lookups, fills, peeks, invalidations and ASID
//! flushes runs against every combination of geometry (L1 / L2),
//! coalescing kind, fill-merge policy, mirror policy, small-page bundle
//! and ASID tagging. Each run's full [`TlbStats`], final occupancy, a
//! digest of every lookup and `peek_run` result, and the number of steps
//! after which `check_invariants_strict` saw unmerged duplicates are
//! compared against constants recorded before the device layer was
//! restructured. Storage-layout or probe-path work must leave every
//! number here unchanged.
//!
//! The safety invariants (`check_invariants`) must hold after every
//! step. The strict (quiescence) invariant is legitimately broken between
//! a blind mirror fill and the next probe of the duplicated set, so its
//! outcome is pinned as a count rather than asserted.

use mixtlb_core::{
    CoalesceKind, FillMerge, Lookup, MirrorPolicy, MixTlb, MixTlbConfig, TlbDevice, TlbStats,
};
use mixtlb_types::{AccessKind, Asid, PageSize, Permissions, Pfn, Translation, Vpn};

/// splitmix64: a tiny deterministic generator, so the pinned numbers do
/// not depend on any external crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Lays out `count` pages of `size` from virtual page `first`, backed by
/// physically contiguous runs of 1..=`max_run` pages. A tenth of the
/// pages are left unaccessed (so walker lines carry holes that split
/// coalesced fragments), half are dirty, and a few runs are read-only.
fn layout(
    rng: &mut Rng,
    out: &mut Vec<Translation>,
    first: u64,
    count: u64,
    size: PageSize,
    max_run: u64,
) {
    let pages = size.pages_4k();
    let mut i = 0;
    while i < count {
        let run = 1 + rng.below(max_run);
        let frame = (1 + rng.below(1 << 12)) * pages * 64;
        let perms = if rng.below(8) == 0 {
            Permissions::ro_user()
        } else {
            Permissions::rw_user()
        };
        for j in 0..run.min(count - i) {
            let mut t = Translation::new(
                Vpn::new(first + (i + j) * pages),
                Pfn::new(frame + j * pages),
                size,
                perms,
            );
            t.accessed = rng.below(10) != 0;
            t.dirty = rng.below(2) == 0;
            out.push(t);
        }
        i += run;
    }
}

fn world(rng: &mut Rng) -> Vec<Translation> {
    let mut out = Vec::new();
    layout(rng, &mut out, 0x1000, 40, PageSize::Size4K, 6);
    layout(rng, &mut out, 0x4_0000, 40, PageSize::Size2M, 12);
    layout(rng, &mut out, 0x10_0000, 2, PageSize::Size1G, 2);
    out
}

/// The walker's 64-byte PTE line: the aligned group of 8 same-size
/// entries around `t`.
fn line_of(world: &[Translation], t: &Translation) -> Vec<Translation> {
    let group = t.vpn.page_number(t.size) / 8;
    world
        .iter()
        .filter(|x| x.size == t.size && x.vpn.page_number(x.size) / 8 == group)
        .copied()
        .collect()
}

fn mix(digest: &mut u64, v: u64) {
    *digest = (*digest ^ v).wrapping_mul(0x0000_0100_0000_01B3);
}

fn digest_translation(digest: &mut u64, t: &Translation) {
    mix(digest, t.vpn.raw());
    mix(digest, t.pfn.raw());
    mix(digest, u64::from(t.size.encode()));
    mix(digest, u64::from(t.dirty));
}

/// Runs the seeded operation sequence and returns the pinned row.
fn run(mut config: MixTlbConfig, tagged: bool, seed: u64) -> [u64; 21] {
    config.name = "pin".to_owned();
    let mut rng = Rng(seed);
    let truth = world(&mut rng);
    let mut tlb = MixTlb::new(config);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut strict_dirty = 0u64;
    for step in 0..600 {
        let asid = if tagged {
            Asid::new(1 + rng.below(2) as u16)
        } else {
            Asid::UNTAGGED
        };
        let t = truth[rng.below(truth.len() as u64) as usize];
        let vpn = t.vpn.add_4k(rng.below(t.size.pages_4k()));
        let mut requested = t;
        requested.accessed = true;
        let roll = rng.below(100);
        if roll < 55 {
            let kind = if rng.below(10) < 3 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            match tlb.lookup_asid(asid, vpn, kind, 0) {
                Lookup::Hit {
                    translation,
                    dirty_microop,
                    run,
                } => {
                    digest_translation(&mut digest, &translation);
                    mix(&mut digest, u64::from(dirty_microop));
                    if let Some(run) = run {
                        digest_translation(&mut digest, &run.first);
                        mix(&mut digest, u64::from(run.len));
                    }
                }
                Lookup::Miss => {
                    mix(&mut digest, 1);
                    tlb.fill_asid(asid, vpn, &requested, &line_of(&truth, &t));
                }
            }
        } else if roll < 72 {
            // A fill without a preceding probe: blind mirrors pile up
            // duplicates in sets nobody has looked at yet.
            tlb.fill_asid(asid, vpn, &requested, &line_of(&truth, &t));
        } else if roll < 84 {
            match tlb.peek_run(vpn) {
                Some(run) => {
                    digest_translation(&mut digest, &run.first);
                    mix(&mut digest, u64::from(run.len));
                }
                None => mix(&mut digest, 2),
            }
        } else if roll < 94 {
            tlb.invalidate_asid(asid, vpn, t.size);
        } else if roll < 96 && (tagged || step % 5 == 0) {
            tlb.flush_asid(asid);
        } else {
            // A probe of an unmapped page: always a miss, never filled.
            let far = Vpn::new(0x80_0000 + rng.below(1 << 16));
            mix(&mut digest, u64::from(tlb.lookup_asid(asid, far, AccessKind::Load, 0).is_hit()));
        }
        if let Err(v) = tlb.check_invariants() {
            panic!("step {step}: {v}");
        }
        if tlb.check_invariants_strict().is_err() {
            strict_dirty += 1;
        }
    }
    let s: TlbStats = tlb.stats();
    [
        s.lookups,
        s.hits,
        s.misses,
        s.hits_by_size[0],
        s.hits_by_size[1],
        s.hits_by_size[2],
        s.sets_probed,
        s.entries_read,
        s.fills,
        s.entries_written,
        s.evictions,
        s.dup_merges,
        s.coalesce_merges,
        s.invalidations,
        s.dirty_microops,
        s.serial_probes,
        s.predictor_reads,
        s.predictor_misses,
        tlb.occupancy() as u64,
        strict_dirty,
        digest,
    ]
}

/// Every configuration of the pin, in [`PINNED`] order.
fn configs() -> Vec<(String, MixTlbConfig, bool)> {
    let mut out = Vec::new();
    for level in ["l1", "l2"] {
        for kind in [CoalesceKind::Bitmap, CoalesceKind::Length] {
            for fill_merge in [FillMerge::ProbedSetOnly, FillMerge::AllSets] {
                for mirror_policy in [MirrorPolicy::Evicting, MirrorPolicy::NonEvicting] {
                    for small_bundle in [1u32, 4] {
                        for tagged in [false, true] {
                            let base = if level == "l1" {
                                MixTlbConfig::l1(8, 4)
                            } else {
                                MixTlbConfig::l2(16, 4)
                            };
                            let config = MixTlbConfig {
                                kind,
                                fill_merge,
                                mirror_policy,
                                small_bundle,
                                ..base
                            };
                            let name = format!(
                                "{level} {kind:?} {fill_merge:?} {mirror_policy:?} sb{small_bundle} {}",
                                if tagged { "tagged" } else { "untagged" }
                            );
                            out.push((name, config, tagged));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Columns: lookups, hits, misses, hits 4K/2M/1G, sets_probed,
/// entries_read, fills, entries_written, evictions, dup_merges,
/// coalesce_merges, invalidations, dirty_microops, serial_probes,
/// predictor_reads, predictor_misses, occupancy, strict-dirty steps,
/// result digest.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 21]); 64] = [
    ("l1 Bitmap ProbedSetOnly Evicting sb1 untagged", [376, 84, 292, 15, 66, 3, 376, 1504, 344, 1387, 1200, 57, 12, 55, 30, 0, 0, 0, 32, 168, 17148803200518693880]),
    ("l1 Bitmap ProbedSetOnly Evicting sb1 tagged", [339, 40, 299, 4, 35, 1, 339, 1356, 397, 1748, 1445, 39, 7, 58, 11, 0, 0, 0, 32, 100, 16031167616075476299]),
    ("l1 Bitmap ProbedSetOnly Evicting sb4 untagged", [382, 105, 277, 51, 54, 0, 382, 1528, 330, 1380, 1223, 60, 8, 61, 34, 0, 0, 0, 32, 167, 7560410861006936046]),
    ("l1 Bitmap ProbedSetOnly Evicting sb4 tagged", [337, 40, 297, 15, 25, 0, 337, 1348, 395, 1718, 1508, 29, 5, 63, 11, 0, 0, 0, 32, 96, 9119044111318856190]),
    ("l1 Bitmap ProbedSetOnly NonEvicting sb1 untagged", [340, 82, 258, 44, 38, 0, 340, 1360, 339, 504, 268, 4, 9, 69, 12, 0, 0, 0, 31, 53, 3512564018502243785]),
    ("l1 Bitmap ProbedSetOnly NonEvicting sb1 tagged", [348, 53, 295, 25, 27, 1, 348, 1392, 370, 577, 304, 10, 4, 58, 14, 0, 0, 0, 32, 151, 8638465393627622433]),
    ("l1 Bitmap ProbedSetOnly NonEvicting sb4 untagged", [369, 128, 241, 88, 38, 2, 369, 1476, 303, 437, 221, 4, 21, 64, 45, 0, 0, 0, 32, 28, 13531078909766868375]),
    ("l1 Bitmap ProbedSetOnly NonEvicting sb4 tagged", [335, 73, 262, 54, 18, 1, 335, 1340, 345, 507, 259, 11, 6, 82, 18, 0, 0, 0, 21, 83, 4712097357835509760]),
    ("l1 Bitmap AllSets Evicting sb1 untagged", [344, 93, 251, 25, 67, 1, 344, 1376, 349, 1343, 884, 0, 68, 66, 14, 0, 0, 0, 32, 0, 3245736984866384152]),
    ("l1 Bitmap AllSets Evicting sb1 tagged", [344, 40, 304, 7, 33, 0, 344, 1376, 388, 1676, 1396, 0, 7, 64, 7, 0, 0, 0, 31, 0, 16306515337382846699]),
    ("l1 Bitmap AllSets Evicting sb4 untagged", [353, 108, 245, 49, 57, 2, 353, 1412, 317, 1367, 1076, 0, 25, 62, 20, 0, 0, 0, 32, 0, 18321889356582466965]),
    ("l1 Bitmap AllSets Evicting sb4 tagged", [349, 57, 292, 15, 41, 1, 349, 1396, 377, 1693, 1275, 0, 90, 59, 13, 0, 0, 0, 17, 0, 14232063253134776033]),
    ("l1 Bitmap AllSets NonEvicting sb1 untagged", [382, 96, 286, 35, 61, 0, 382, 1528, 360, 867, 284, 0, 70, 46, 27, 0, 0, 0, 32, 0, 1422174834752693450]),
    ("l1 Bitmap AllSets NonEvicting sb1 tagged", [360, 51, 309, 25, 26, 0, 360, 1440, 377, 703, 321, 0, 32, 52, 12, 0, 0, 0, 27, 0, 11647841554016355743]),
    ("l1 Bitmap AllSets NonEvicting sb4 untagged", [371, 138, 233, 82, 55, 1, 371, 1484, 300, 703, 216, 0, 109, 67, 38, 0, 0, 0, 32, 0, 6171329161533696668]),
    ("l1 Bitmap AllSets NonEvicting sb4 tagged", [341, 72, 269, 53, 18, 1, 341, 1364, 357, 659, 278, 0, 61, 63, 17, 0, 0, 0, 32, 0, 14131769063278942324]),
    ("l1 Length ProbedSetOnly Evicting sb1 untagged", [355, 61, 294, 14, 47, 0, 355, 1420, 364, 1575, 1253, 36, 7, 69, 13, 0, 0, 0, 32, 148, 17713529157960112106]),
    ("l1 Length ProbedSetOnly Evicting sb1 tagged", [345, 28, 317, 8, 20, 0, 345, 1380, 402, 1809, 1481, 13, 4, 62, 4, 0, 0, 0, 32, 55, 11638150522193405033]),
    ("l1 Length ProbedSetOnly Evicting sb4 untagged", [368, 74, 294, 28, 44, 2, 368, 1472, 346, 1466, 1091, 78, 9, 57, 22, 0, 0, 0, 32, 212, 11677615501646708678]),
    ("l1 Length ProbedSetOnly Evicting sb4 tagged", [356, 47, 309, 19, 28, 0, 356, 1424, 380, 1675, 1305, 18, 3, 62, 12, 0, 0, 0, 32, 63, 8294278966719530555]),
    ("l1 Length ProbedSetOnly NonEvicting sb1 untagged", [367, 84, 283, 49, 35, 0, 367, 1468, 360, 469, 286, 4, 5, 52, 15, 0, 0, 0, 32, 51, 11825816133789868437]),
    ("l1 Length ProbedSetOnly NonEvicting sb1 tagged", [381, 56, 325, 38, 18, 0, 381, 1524, 393, 550, 325, 6, 0, 57, 8, 0, 0, 0, 31, 78, 15456213902046831153]),
    ("l1 Length ProbedSetOnly NonEvicting sb4 untagged", [362, 136, 226, 90, 46, 0, 362, 1448, 311, 461, 219, 5, 4, 56, 39, 0, 0, 0, 32, 49, 5493036098762128907]),
    ("l1 Length ProbedSetOnly NonEvicting sb4 tagged", [353, 55, 298, 43, 12, 0, 353, 1412, 372, 622, 280, 13, 4, 49, 17, 0, 0, 0, 32, 125, 2993332264371302867]),
    ("l1 Length AllSets Evicting sb1 untagged", [361, 61, 300, 14, 47, 0, 361, 1444, 368, 1670, 1318, 0, 59, 60, 14, 0, 0, 0, 32, 31, 8265990857183896161]),
    ("l1 Length AllSets Evicting sb1 tagged", [332, 24, 308, 2, 22, 0, 332, 1328, 406, 1932, 1538, 0, 46, 62, 3, 0, 0, 0, 32, 4, 13669541365349575063]),
    ("l1 Length AllSets Evicting sb4 untagged", [376, 113, 263, 29, 84, 0, 376, 1504, 335, 1504, 1087, 0, 60, 63, 37, 0, 0, 0, 32, 3, 7355566811240460730]),
    ("l1 Length AllSets Evicting sb4 tagged", [364, 39, 325, 18, 21, 0, 364, 1456, 399, 1813, 1447, 2, 27, 63, 10, 0, 0, 0, 32, 3, 6675956223315077872]),
    ("l1 Length AllSets NonEvicting sb1 untagged", [346, 90, 256, 40, 50, 0, 346, 1384, 326, 748, 258, 1, 37, 75, 20, 0, 0, 0, 32, 1, 5282640500496173165]),
    ("l1 Length AllSets NonEvicting sb1 tagged", [370, 59, 311, 29, 29, 1, 370, 1480, 381, 676, 341, 0, 7, 58, 17, 0, 0, 0, 29, 0, 13739811441011597507]),
    ("l1 Length AllSets NonEvicting sb4 untagged", [381, 128, 253, 80, 47, 1, 381, 1524, 330, 758, 246, 0, 32, 38, 41, 0, 0, 0, 22, 0, 4684097601615362452]),
    ("l1 Length AllSets NonEvicting sb4 tagged", [366, 50, 316, 36, 13, 1, 366, 1464, 374, 762, 285, 1, 15, 60, 10, 0, 0, 0, 32, 4, 1348751230291537444]),
    ("l2 Bitmap ProbedSetOnly Evicting sb1 untagged", [377, 89, 288, 21, 67, 1, 377, 1508, 340, 2815, 2495, 134, 31, 53, 25, 0, 0, 0, 64, 320, 6924031572408280678]),
    ("l2 Bitmap ProbedSetOnly Evicting sb1 tagged", [336, 38, 298, 4, 34, 0, 336, 1344, 382, 3052, 2640, 28, 7, 59, 13, 0, 0, 0, 64, 82, 8736986421449165852]),
    ("l2 Bitmap ProbedSetOnly Evicting sb4 untagged", [346, 83, 263, 35, 45, 3, 346, 1384, 327, 2832, 2496, 129, 32, 66, 26, 0, 0, 0, 63, 236, 6029252645514181249]),
    ("l2 Bitmap ProbedSetOnly Evicting sb4 tagged", [370, 54, 316, 17, 35, 2, 370, 1480, 368, 3233, 2592, 66, 35, 61, 15, 0, 0, 0, 64, 172, 11360356365432272267]),
    ("l2 Bitmap ProbedSetOnly NonEvicting sb1 untagged", [375, 103, 272, 70, 32, 1, 375, 1500, 339, 634, 250, 5, 4, 51, 17, 0, 0, 0, 64, 62, 12903366297546167532]),
    ("l2 Bitmap ProbedSetOnly NonEvicting sb1 tagged", [363, 62, 301, 39, 23, 0, 363, 1452, 369, 650, 290, 15, 24, 55, 15, 0, 0, 0, 64, 80, 15542489184904802435]),
    ("l2 Bitmap ProbedSetOnly NonEvicting sb4 untagged", [378, 148, 230, 83, 63, 2, 378, 1512, 282, 634, 147, 23, 36, 60, 38, 0, 0, 0, 64, 121, 12267220645916340550]),
    ("l2 Bitmap ProbedSetOnly NonEvicting sb4 tagged", [346, 82, 264, 59, 23, 0, 346, 1384, 350, 646, 242, 40, 30, 67, 25, 0, 0, 0, 64, 417, 16428797765724482353]),
    ("l2 Bitmap AllSets Evicting sb1 untagged", [358, 102, 256, 27, 72, 3, 358, 1432, 320, 2210, 1173, 0, 315, 73, 26, 0, 0, 0, 64, 0, 18186875220990929985]),
    ("l2 Bitmap AllSets Evicting sb1 tagged", [340, 38, 302, 5, 32, 1, 340, 1360, 370, 3175, 2147, 0, 254, 68, 13, 0, 0, 0, 64, 0, 1721531122279324753]),
    ("l2 Bitmap AllSets Evicting sb4 untagged", [373, 118, 255, 40, 77, 1, 373, 1492, 312, 2652, 1640, 0, 257, 57, 40, 0, 0, 0, 64, 0, 10903384082489369210]),
    ("l2 Bitmap AllSets Evicting sb4 tagged", [363, 70, 293, 20, 48, 2, 363, 1452, 369, 2964, 2306, 0, 65, 54, 15, 0, 0, 0, 64, 0, 12563716251284688088]),
    ("l2 Bitmap AllSets NonEvicting sb1 untagged", [384, 133, 251, 68, 65, 0, 384, 1536, 329, 1395, 257, 0, 180, 41, 31, 0, 0, 0, 64, 0, 12465121980621611470]),
    ("l2 Bitmap AllSets NonEvicting sb1 tagged", [366, 61, 305, 33, 27, 1, 366, 1464, 381, 1310, 301, 0, 127, 52, 13, 0, 0, 0, 64, 0, 7483542264871399724]),
    ("l2 Bitmap AllSets NonEvicting sb4 untagged", [360, 170, 190, 113, 56, 1, 360, 1440, 269, 1327, 172, 0, 160, 55, 44, 0, 0, 0, 64, 0, 18244024943004444502]),
    ("l2 Bitmap AllSets NonEvicting sb4 tagged", [371, 94, 277, 48, 45, 1, 371, 1484, 336, 1320, 244, 0, 179, 56, 29, 0, 0, 0, 64, 0, 7202383726535639519]),
    ("l2 Length ProbedSetOnly Evicting sb1 untagged", [360, 62, 298, 10, 52, 0, 360, 1440, 368, 2918, 2339, 140, 23, 69, 25, 0, 0, 0, 64, 274, 9649456782459509053]),
    ("l2 Length ProbedSetOnly Evicting sb1 tagged", [353, 39, 314, 7, 31, 1, 353, 1412, 376, 3391, 2640, 82, 15, 62, 5, 0, 0, 0, 64, 166, 4112835209677245582]),
    ("l2 Length ProbedSetOnly Evicting sb4 untagged", [371, 98, 273, 45, 52, 1, 371, 1484, 334, 2854, 2289, 89, 28, 53, 28, 0, 0, 0, 38, 242, 17333565312256860942]),
    ("l2 Length ProbedSetOnly Evicting sb4 tagged", [355, 48, 307, 15, 32, 1, 355, 1420, 397, 3277, 2755, 33, 7, 58, 15, 0, 0, 0, 64, 76, 8514962277664672018]),
    ("l2 Length ProbedSetOnly NonEvicting sb1 untagged", [374, 122, 252, 82, 39, 1, 374, 1496, 296, 733, 177, 30, 4, 61, 21, 0, 0, 0, 64, 150, 18389582066405232388]),
    ("l2 Length ProbedSetOnly NonEvicting sb1 tagged", [351, 60, 291, 35, 25, 0, 351, 1404, 363, 712, 287, 18, 8, 60, 16, 0, 0, 0, 46, 199, 16939441790153087219]),
    ("l2 Length ProbedSetOnly NonEvicting sb4 untagged", [365, 145, 220, 97, 46, 2, 365, 1460, 277, 599, 155, 56, 17, 61, 38, 0, 0, 0, 64, 278, 11935238370561031831]),
    ("l2 Length ProbedSetOnly NonEvicting sb4 tagged", [350, 100, 250, 68, 30, 2, 350, 1400, 339, 702, 231, 22, 8, 55, 22, 0, 0, 0, 64, 150, 1645655611947552708]),
    ("l2 Length AllSets Evicting sb1 untagged", [371, 77, 294, 18, 58, 1, 371, 1484, 361, 2911, 1988, 2, 297, 50, 19, 0, 0, 0, 64, 13, 10469521734586480838]),
    ("l2 Length AllSets Evicting sb1 tagged", [338, 36, 302, 4, 32, 0, 338, 1352, 377, 3272, 2315, 0, 154, 70, 11, 0, 0, 0, 64, 0, 6977367784241125334]),
    ("l2 Length AllSets Evicting sb4 untagged", [378, 103, 275, 31, 70, 2, 378, 1512, 340, 2935, 1985, 1, 295, 57, 25, 0, 0, 0, 62, 6, 12301721268470354980]),
    ("l2 Length AllSets Evicting sb4 tagged", [354, 56, 298, 34, 22, 0, 354, 1416, 384, 2904, 2006, 0, 249, 55, 14, 0, 0, 0, 64, 3, 4843916227155331939]),
    ("l2 Length AllSets NonEvicting sb1 untagged", [347, 112, 235, 62, 50, 0, 347, 1388, 317, 1286, 239, 3, 68, 60, 29, 0, 0, 0, 58, 69, 7927631549710058994]),
    ("l2 Length AllSets NonEvicting sb1 tagged", [348, 39, 309, 20, 19, 0, 348, 1392, 398, 1251, 303, 1, 124, 58, 7, 0, 0, 0, 57, 84, 13373132303141376608]),
    ("l2 Length AllSets NonEvicting sb4 untagged", [368, 158, 210, 111, 44, 3, 368, 1472, 285, 1250, 187, 0, 91, 57, 26, 0, 0, 0, 55, 235, 7180961813880487433]),
    ("l2 Length AllSets NonEvicting sb4 tagged", [352, 88, 264, 63, 24, 1, 352, 1408, 345, 1126, 249, 1, 114, 63, 16, 0, 0, 0, 63, 16, 14246109543609607757]),
];

#[test]
fn mix_counters_match_the_pinned_constants() {
    let mut actual = Vec::new();
    for (i, (name, config, tagged)) in configs().into_iter().enumerate() {
        let row = run(config, tagged, 0x5EED_0000 + i as u64);
        actual.push((name, row));
    }
    // Guard against a sequence too tame to pin anything: across the
    // configurations, every counter that MIX drives must move.
    for (col, what) in [
        (1, "hits"),
        (4, "2 MB hits"),
        (5, "1 GB hits"),
        (10, "evictions"),
        (11, "dup_merges"),
        (12, "coalesce_merges"),
        (14, "dirty_microops"),
        (19, "strict-dirty steps"),
    ] {
        assert!(
            actual.iter().any(|(_, row)| row[col] > 0),
            "no {what} across the pinned configurations"
        );
    }
    let matches = actual.len() == PINNED.len()
        && actual
            .iter()
            .zip(PINNED.iter())
            .all(|((n, r), (pn, pr))| n == pn && r == pr);
    if !matches {
        let mut table = String::new();
        for (name, row) in &actual {
            table.push_str(&format!("    (\"{name}\", {row:?}),\n"));
        }
        panic!("MIX counters drifted from the pin; actual rows:\n{table}");
    }
}
