//! Golden digests of the two dynamic analyses' results.
//!
//! The saved-register analysis (`regsave::analyze`, §4.1) and the
//! object-bounds runtime (`runtime::trace_bounds`, §4.2) are pure
//! functions of the lifted module and the traced inputs. This test runs
//! the pipeline up to bounds tracing on the six `spec-cold` benchmark
//! programs (each under its benchmark profile, traced on
//! `trace_inputs()`) and on a fixed slice of progen programs, renders
//! every `BoundsInfo` (vars, links, call-site arguments, entered
//! functions) and `RegSaveInfo` (classes, indirect targets) in sorted
//! order, and compares a SHA-256 of each rendering with a pinned value.
//!
//! Any change to how the runtimes keep their state must leave these
//! digests exactly as they are, serially and under `WYT_PAR=4`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use wyt_core::{regsave, runtime, spfold, vararg};
use wyt_minicc::{compile, Profile};
use wyt_testkit::{progen, rng::mix, Rng};

type ProfileFn = fn() -> Profile;

/// The `spec-cold` programs and profiles of the repo benchmark.
const SPEC: [(&str, ProfileFn); 6] = [
    ("bzip2", Profile::gcc12_o3),
    ("gcc", Profile::gcc12_o0),
    ("mcf", Profile::clang16_o3),
    ("gobmk", Profile::gcc44_o3),
    ("libquantum", Profile::gcc12_o0),
    ("xalancbmk", Profile::clang16_o3),
];

/// Seed and length of the progen slice.
const PROGEN_SEED: u64 = 0x601d_e2a1;
const PROGEN_COUNT: u64 = 24;

/// SHA-256 of each program's rendered analysis results.
const GOLDEN: &[(&str, &str)] = &[
    ("bzip2", "fe8eebfec9eb013c1846d3fd4ce6285ffbe12a1b1a8951c95fa3cc4c33c9223a"),
    ("gcc", "d53a0eb4d792eead1e9758ba39aa9cc769498ba03f48d69d7e6d2b15b91fe37c"),
    ("mcf", "726d21f946ed0ad5b9f527fc87f29dc5211a94837857cbf49ebbb70c555b784c"),
    ("gobmk", "15a64b8e850415e64e771d4f9a1092955c1d38df149cb705742c1d0f1ee53128"),
    ("libquantum", "db5b0b75cfcc9050ad37d492d559b3a8214a264a663d795386ae7b4315ce04c0"),
    ("xalancbmk", "427a91321b975d6e5b316e451e6ba6e36f1e14dd0e3e8903659271cc629c8669"),
    ("progen-0", "ba7c133791ef7fd653bdb9cd6c912703000a8f0a809856f6afbbc6b74432e40f"),
    ("progen-1", "1998fef25aa09f40d207eb05f711e8210e8be590afe894998f9c9db3784b76cf"),
    ("progen-2", "cddbf93bad3f06446f706e1de4ccb21f09df614044ebe75c35af0e9f4b8aaf79"),
    ("progen-3", "4818b5e3b8dcc93e35b41d4a6e03eab38e443e92740b994b85a5208b26568011"),
    ("progen-4", "395aebe70b5440862c66932569943c016bf571428f45a5db2e691511708c39e7"),
    ("progen-5", "3325e778a6ee3aa6f6fbc92461454ba0df34574e2b702d466f1d8f3850028342"),
    ("progen-6", "cab88af74c5e016c51f4d07e65c40549db5ba5470350e9d6aabb0931cdd15f62"),
    ("progen-7", "adfc9a9c04889d5ba0ecdec9330e14d90503815cf964d90390bd462e2673a427"),
    ("progen-8", "1d550a2a0f6ca4b6b79b2db90c0fcc4cc230d3cdedef2138ad5f4e5595339aab"),
    ("progen-9", "a467eb24af56e33cc28dab33434f77844736780737f4660544204c90e80cba1b"),
    ("progen-10", "5eea885cbc6c939ec2a0ca01e6996a568e28f9212f6b1db356cd792bdb4db13c"),
    ("progen-11", "4db4917df85637aeee5d2eb6d23c793eb316b63f9e082c367121edb72ed78b1b"),
    ("progen-12", "f4ddc7274319133a596c8356ae66de175631a4f4fd263da070bfbfc4404a20f8"),
    ("progen-13", "7cc4e52a249f0b7a69a07fb005ac19d24c95e49ae116dcdf2768b59df1a689c7"),
    ("progen-14", "423b56504177992c2f3a927dd1a80474c08fea36f58a5e1083eefeb6603e7536"),
    ("progen-15", "a90ada523f8ece78bc847c67a9d56084ac46b2fdcfd0391f4cbad79e255a9ccc"),
    ("progen-16", "0c4609c72e2f73a13b80f9dea7f0f5db0417297cf3ea3fe1d5fc69831dbb0dc1"),
    ("progen-17", "b98847aeb995775a266279dea4226c632d365f4f994a93e5659c80bbc36b9ab0"),
    ("progen-18", "b7543d9809af025ea2166a44f8d5888a981d0921ea7d9d40a78487dca6dd5d28"),
    ("progen-19", "8868836f90b2bf264dea2bf4c14f77d7353a8b30256207fe3fe7ccc3e2ab59b2"),
    ("progen-20", "34489ecef1760dfa6696aac8312a4dbd3c08b02fb913505bbd8a08a006694893"),
    ("progen-21", "3f5e165b7bf9cde7db96ea90142e875b0135c6d24d4f946c550edcad0b370538"),
    ("progen-22", "7ce765fde4a538b106919c84f6f59eebed890d0134f64c7e1a86332456d0eacc"),
    ("progen-23", "11ca5dffb6e9dc571aa7aa103c4db1d0989a24f8d332f601c8827cc0b48c85d6"),
];

/// Lift, refine and trace `src` up to the bounds runtime; render both
/// analyses' results (or the first error) in a canonical order.
fn render(src: &str, profile: &Profile, inputs: &[Vec<u8>]) -> String {
    let img = compile(src, profile).expect("compile").stripped();
    let lifted = wyt_lifter::lift_image(&img, inputs).expect("lift");
    let meta = lifted.meta;
    let mut module = lifted.module;
    let obs = match vararg::observe(&module, inputs) {
        Ok(o) => o,
        Err(e) => return format!("vararg error {e}"),
    };
    vararg::apply(&mut module, &obs);
    let regs = match regsave::analyze(&module, &meta, inputs) {
        Ok(r) => r,
        Err(e) => return format!("regsave error {e}"),
    };
    let mut s = format!(
        "regsave {:?} {:?}",
        regs.class.iter().collect::<BTreeMap<_, _>>(),
        regs.indirect_targets.iter().collect::<BTreeMap<_, _>>()
    );
    let none = BTreeSet::new();
    spfold::insert_save_restore(&mut module, &meta, &regs, &none);
    let (fold, errs) = spfold::fold(&mut module, &meta, &regs, &none);
    let _ = write!(s, "\nfold errors {:?}", errs.iter().map(|e| e.func).collect::<Vec<_>>());
    match runtime::trace_bounds(&module, &fold, inputs) {
        Ok(b) => {
            let _ = write!(
                s,
                "\nbounds {:?} {:?} {:?} {:?}",
                b.vars.iter().collect::<BTreeMap<_, _>>(),
                b.links,
                b.callsite_args.iter().collect::<BTreeMap<_, _>>(),
                b.entered
            );
        }
        Err(e) => {
            let _ = write!(s, "\nbounds error {e}");
        }
    }
    s
}

fn digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, profile) in SPEC {
        let bench = wyt_spec::by_name(name).expect("suite program");
        let text = render(bench.source, &profile(), &bench.trace_inputs());
        out.push((name.to_string(), wyt_store::sha256_hex(text.as_bytes())));
    }
    for i in 0..PROGEN_COUNT {
        let p = progen::gen_prog(&mut Rng::new(mix(PROGEN_SEED, i)));
        let text = render(
            &progen::render(&p),
            &progen::profile(p.profile),
            std::slice::from_ref(&p.input),
        );
        out.push((format!("progen-{i}"), wyt_store::sha256_hex(text.as_bytes())));
    }
    out
}

#[test]
fn analysis_results_match_golden_digests() {
    let got = digests();
    let golden: Vec<(String, String)> =
        GOLDEN.iter().map(|(n, d)| (n.to_string(), d.to_string())).collect();
    if got != golden {
        let table: String = got.iter().map(|(n, d)| format!("    (\"{n}\", \"{d}\"),\n")).collect();
        let diff: Vec<&str> = got
            .iter()
            .zip(golden.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|(g, w)| Some(*g) != *w)
            .map(|(g, _)| g.0.as_str())
            .collect();
        panic!("analysis digests changed for {diff:?}; current table:\n{table}");
    }
}
