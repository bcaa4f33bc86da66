//! The Karp-Sipser initializers: the serial KS's output pinned by hash,
//! and the parallel KS's properties inside 1-, 2- and 4-thread pools.

use gen::Scale;
use matching::init::{is_maximal, karp_sipser, parallel_karp_sipser};
use ms_bfs_graft::prelude::*;

/// FNV-1a (64-bit) over the little-endian bytes of `mates_x`.
fn mates_hash(m: &Matching) -> u64 {
    m.mates_x().iter().fold(0xcbf2_9ce4_8422_2325, |h, &y| {
        y.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// `mates_hash(karp_sipser(g, seed))` for seeds 1..=16, recorded from the
/// implementation that collected the unmatched neighbors of every random
/// pick into a `Vec`. The scale-free and web graphs repeat one hash: the
/// degree-1 rule alone leaves no random pick there.
#[rustfmt::skip]
const GOLDEN: [(&str, Scale, [u64; 16]); 22] = [
    ("kkt_power", Scale::Tiny, [
        0x97272c9dc308e450, 0x0fd15fb9fd9784be, 0x50ff01e3be473aa4, 0xbc3f92a33409e566,
        0x01a6c278c56ce28a, 0x02ceee16549bdc62, 0xceb7fde37853b620, 0xc824bf9d76968cef,
        0x02b9f6dcdda8a268, 0x4646f5b247b32702, 0xc1de42846ca61f96, 0x355b2b9623bd7c92,
        0x0c6477f49202bb8a, 0x3b1770e17ace46be, 0x1dcfc2318b949326, 0x0c49ea0b9a86f787,
    ]),
    ("delaunay", Scale::Tiny, [
        0xbc36aeb27c21c359, 0x16e0d913e9200136, 0x6d64b3742f9e4b1e, 0x38bcf42fa2a7ac73,
        0xe3777c1e4c8bc051, 0x5df0104918dcda1e, 0x57b283bb72c3d6ac, 0xf94cf3f6caa84482,
        0x93c340b8f577d9fd, 0x7750dc85d8914faa, 0x821c2bdb28c2347a, 0xeef3a48231812585,
        0x8c410a5f8b10de41, 0xcb451c7b976153e5, 0x465de3bb4b7ce2a3, 0x456a1a9d06f30c4c,
    ]),
    ("hugetrace", Scale::Tiny, [
        0x2a51cd3d7194cd0b, 0x87394634e65e9f76, 0xec8e62825e7f1721, 0x667a47b94d62d01e,
        0x4c2759a99f5b9b1c, 0x6555cf6f7ff79f8b, 0xd9b5a941af69be31, 0x274999a18e8f4e0a,
        0xaacd277cf72bb2bd, 0x05e7608d9d9bc277, 0x4ce3c1b5e35da6a6, 0x441a80c89dbf4c3e,
        0x710d4a4086622ad3, 0x46202ef042e6f055, 0x11ef0938f835c42d, 0x23158a76e1c36e86,
    ]),
    ("road_usa", Scale::Tiny, [
        0x2112f81f55103c3b, 0x98098ccf69a3dd43, 0xffd5c8b310a231e5, 0xfefe4b1b80b80bbb,
        0x643e16ce403dbb6a, 0x3732c6eb51df5182, 0x50f6480982bac3b8, 0x498216900a5ff5e6,
        0x2d8ca11ae4618875, 0x7c298fdfd1244212, 0x84bf9a2063c62051, 0xe9535d557833d1f4,
        0x2195abf45d66df96, 0xe4016716278e7efa, 0x4544ce92c48c531d, 0xe74da141b18c8f2d,
    ]),
    ("cit-Patents", Scale::Tiny, [
        0x2d96492b86c38b8a, 0x3f25a94ef7728eda, 0xaa78f6056e372662, 0x571252ec0177252a,
        0xdfc827f93a2ce94a, 0x1d3c0e9e4af51766, 0xbc33d7fabf5d5d26, 0x415253d12c1df14a,
        0xe1ed9ed7bc2658c2, 0x3710b64ea39c7ed6, 0xab4ad57f619f0e86, 0x2a6f041cd08c180e,
        0x6893602dc8254062, 0x2c71a9f88d7a23c6, 0x8d546ff8d5035552, 0x147746cc28bc7e32,
    ]),
    ("amazon0312", Scale::Tiny, [
        0x925e1e4c21b6fabe, 0x5023b7b3e5de1ed2, 0x3e8ccc88ffcad152, 0xefdd5bfcb8ee8d82,
        0x22f8c2e6f229ee0e, 0x489f540bab72be0e, 0x29f5f1b5d6e51156, 0x91094fde99c79dbe,
        0xf749b2fb51d582e2, 0x81fd1012838653b6, 0xe8dc456eee05cfb6, 0xbd69b73ab71a9d56,
        0xa0620c5649a3765e, 0x9bfcd619acd16fe6, 0x345f3fab28f8f0a2, 0x887316e1e9f8b01a,
    ]),
    ("coPapersDBLP", Scale::Tiny, [
        0xdf3ea2f79a29790b, 0x303eb38a3d50b2d6, 0x1c0ec15ea63dbd0b, 0x15d5263602a72e87,
        0x605994037a5dd0e3, 0x29557093f61d4983, 0xa78523e0141331cf, 0x2beb96bfede32c3b,
        0xc91bc762b5bc26ff, 0xf07fd56ee2dbb3ff, 0x9bcbf38994fb775b, 0x5a870321542f7783,
        0x12b8717da20975ab, 0x1e66107e2e0c54bb, 0x5f0635cd5169e4b7, 0x5255977e1a6183eb,
    ]),
    ("RMAT", Scale::Tiny, [
        0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a,
        0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a,
        0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a,
        0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a, 0xa405dbff29a6833a,
    ]),
    ("wikipedia", Scale::Tiny, [
        0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f,
        0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f,
        0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f,
        0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f, 0x0a381e438843e50f,
    ]),
    ("web-Google", Scale::Tiny, [
        0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f,
        0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f,
        0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f,
        0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f, 0x7960e79ef960a09f,
    ]),
    ("wb-edu", Scale::Tiny, [
        0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b,
        0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b,
        0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b,
        0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b, 0xdb5685b9ec163e9b,
    ]),
    ("kkt_power", Scale::Small, [
        0xc64069e70431c804, 0x94feb570d46fa353, 0xaa2817e0ca5f2ca8, 0x634a23684f9ced5d,
        0xa224dd197bf7fa06, 0x182a38e0423b315f, 0xc6deb706bba8d211, 0x3f3dde9f5b37c553,
        0xe2e3890acce553a1, 0x42a6078531fd9c13, 0xbffaa49f75b49290, 0x0acdba7b97709679,
        0x848b58fc9cc92039, 0x560cf5554335b7bf, 0x14eb28d0caa01c95, 0x547b0895ddbaabd0,
    ]),
    ("delaunay", Scale::Small, [
        0x89134ced3c3030a3, 0x6ae7aac9c87e0852, 0xb8bb8a4bbac19c46, 0x437f7fac3effa152,
        0xaaaca7e1860dc62d, 0x602cfa71dfb9baef, 0xddce30182073a082, 0xa086e85654398796,
        0x7c157b2f7ee9b2ea, 0x2b464c5d2a20ded1, 0x94c21fdd528bc437, 0x401f88cb370f9760,
        0x60f924a49279ccfb, 0x511faedb95cf56e0, 0x8aea621cd33966f1, 0x618fd1067defb388,
    ]),
    ("hugetrace", Scale::Small, [
        0xcb59d52b8ae3f0f4, 0xe0cdfa9a6281b423, 0xa1b640d2931e1681, 0x89d257d1785c9115,
        0x97374c942209db72, 0xc24762f5ce58e6fc, 0x264310090fefc15c, 0xf1e6aa09bc9f1a72,
        0xe71be856214c772a, 0x2aff1cb2c3870a84, 0x3ff91a90dd9c32e3, 0x16a6f1588dd56976,
        0x34d0c7fb11ed1df4, 0x5ee6b99ed28b98fc, 0x64f289f08d882d25, 0xa892d984050fec98,
    ]),
    ("road_usa", Scale::Small, [
        0xcfd79e7860553ae5, 0x70a09069e2f4b0e2, 0x80a388d7b845273d, 0xd6fb3292319c6822,
        0xc087c4334afa04c4, 0xe1b71a0bcc6a1f06, 0xdef1fd88df090c35, 0xe95954b2cf623c8c,
        0x13e351d97d5cfa54, 0x696ecce7d74ccfc0, 0xb8cfbae4fc00e67b, 0x26cd95c7d5ed4a40,
        0x3f57d9c222b49a64, 0x8b2d38c485fea6c7, 0x078e0a1bf62ba75d, 0x6939150ba2eeaedc,
    ]),
    ("cit-Patents", Scale::Small, [
        0x40665cf9b09ee75e, 0x0302326b6a38d3af, 0x9f99e1c14c23427b, 0x84c6db39b362980f,
        0x39cc0130e43220ff, 0x37f7a2687c5e9b8b, 0x65aa1819c16524cb, 0xfe59b7d1af4b43ef,
        0x1ef9fcb2eccba28b, 0xa6f14738bd1cf2a7, 0x35157809c761abd7, 0xde457a70d90ced13,
        0xcd1a83bfc8021a73, 0x329eddcabe5b7dce, 0x27babd52ed4b429f, 0x02254ce091e30db7,
    ]),
    ("amazon0312", Scale::Small, [
        0xbd91133226c569ce, 0xb068f3f00a161ce6, 0xf504517110550666, 0x692665f309253ed6,
        0x41b7edaf4c4681ee, 0x39d147aa82cda996, 0xfdd0b55bb1b059c6, 0x3e29a65c7931f842,
        0x55fb3764e9245586, 0x3d33f788f70334d6, 0x4927a6f9d8ab5b0a, 0xf1517af31a0712e6,
        0x1b1633688f66dfa2, 0x7efc0fc2d3bd9852, 0x1e4352cfb4b00faa, 0x41216e7f8c35d70a,
    ]),
    ("coPapersDBLP", Scale::Small, [
        0x34ab8d8abc31f670, 0x6278ad7259cfde34, 0x35e322d4b2399444, 0x37e462d164f0655c,
        0x20127c9ba535c434, 0xc06e49845dd3941c, 0x621106db63803b38, 0x8202826eccb5d430,
        0x246c11c29f74d348, 0xb44845112d1234ed, 0x9602c69236b0e80c, 0xffc1fa87ce0ce290,
        0xe7aa9e7f27c37138, 0x442362e7e794db60, 0xa4fe7a40da8f8e04, 0x1af370daa52a2c0c,
    ]),
    ("RMAT", Scale::Small, [
        0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9,
        0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9,
        0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9,
        0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9, 0xb765bec458654dc9,
    ]),
    ("wikipedia", Scale::Small, [
        0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10,
        0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10,
        0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10,
        0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10, 0x411b854680594d10,
    ]),
    ("web-Google", Scale::Small, [
        0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53,
        0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53,
        0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53,
        0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53, 0x7f7762a1dee5ef53,
    ]),
    ("wb-edu", Scale::Small, [
        0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1,
        0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1,
        0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1,
        0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1, 0x8612ee4ad1cc95a1,
    ]),
];

/// `mates_hash(karp_sipser(kkt_power:medium, 1))`, recorded likewise.
const GOLDEN_KKT_MEDIUM: u64 = 0x7ebd756bb45b1d4c;

fn pinned(scale: Scale) {
    for (name, _, hashes) in GOLDEN.iter().filter(|row| row.1 == scale) {
        let g = gen::suite::by_name(name).unwrap().build(scale);
        for (seed, &want) in (1..).zip(hashes) {
            let got = mates_hash(&karp_sipser(&g, seed));
            assert_eq!(got, want, "{name}:{scale:?} seed {seed}: {got:#018x}");
        }
    }
}

#[test]
fn serial_karp_sipser_is_pinned_at_tiny_scale_and_on_kkt_power_medium() {
    pinned(Scale::Tiny);
    let g = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(Scale::Medium);
    assert_eq!(mates_hash(&karp_sipser(&g, 1)), GOLDEN_KKT_MEDIUM);
}

#[test]
fn serial_karp_sipser_is_pinned_at_small_scale() {
    pinned(Scale::Small);
}

/// The parallel KS inside 1-, 2- and 4-thread pools, seeds 1–4: always a
/// valid maximal matching, the serial KS's matching at one thread, and
/// never more than half a percentage point of the maximum below the
/// serial KS's cardinality for the same seed.
fn parallel_properties(scale: Scale) {
    let pools: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
        })
        .collect();
    for entry in gen::suite::suite() {
        let g = entry.build(scale);
        let max = matching::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality() as f64;
        for seed in 1..=4 {
            let serial = karp_sipser(&g, seed);
            for pool in &pools {
                let at = format!(
                    "{}:{scale:?} seed {seed}, {} threads",
                    entry.name,
                    pool.current_num_threads()
                );
                let m = pool.install(|| parallel_karp_sipser(&g, seed));
                assert!(m.validate(&g).is_ok(), "{at}: invalid");
                assert!(is_maximal(&g, &m), "{at}: not maximal");
                if pool.current_num_threads() == 1 {
                    assert_eq!(m, serial, "{at}: differs from the serial KS");
                }
                let (par, ser) = (m.cardinality() as f64, serial.cardinality() as f64);
                assert!(
                    par / max >= ser / max - 0.005,
                    "{at}: matched {par} against the serial KS's {ser} of {max}"
                );
            }
        }
    }
}

#[test]
fn parallel_karp_sipser_properties_at_tiny_scale() {
    parallel_properties(Scale::Tiny);
}

#[test]
fn parallel_karp_sipser_properties_at_small_scale() {
    parallel_properties(Scale::Small);
}
