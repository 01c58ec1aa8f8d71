//! Pins `Curare::transform_forms` output on the shared corpus: the
//! pretty-printed program and, per defun, the verdict, devices,
//! `converted` flag and feedback text, with and without speculation.
//!
//! The expected text is `data/transform_snapshot.txt`. After an
//! intended change to transform output, re-record it by writing
//! `render_corpus()` to that file, and review the diff.

#[path = "../../analysis/src/corpus.rs"]
mod corpus;

use curare_sexpr::parse_all;
use curare_transform::Curare;

fn render(src: &str, speculate: bool) -> String {
    let forms = parse_all(src).expect("corpus programs parse");
    let out = match Curare::new().with_speculation(speculate).transform_forms(&forms) {
        Ok(out) => out,
        Err(e) => return format!("error: {e}\n"),
    };
    let mut text = format!("--- source\n{}", out.source());
    for r in &out.reports {
        text.push_str(&format!(
            "--- report {}\nverdict: {:?}\ndevices: {:?}\nconverted: {}\nfeedback:\n{}",
            r.name, r.verdict, r.devices, r.converted, r.feedback
        ));
    }
    text
}

fn render_corpus() -> String {
    let mut text = String::new();
    for (name, src) in corpus::programs() {
        let plain = render(&src, false);
        let speculative = render(&src, true);
        text.push_str(&format!("=== {name}\n{plain}"));
        if speculative == plain {
            text.push_str("=== with speculation: identical\n");
        } else {
            text.push_str(&format!("=== with speculation\n{speculative}"));
        }
    }
    text
}

#[test]
fn transform_output_matches_snapshot() {
    let expected = include_str!("data/transform_snapshot.txt");
    let actual = render_corpus();
    if actual != expected {
        let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        let at = line.unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "transform output differs from the snapshot at line {}:\n  actual:   {:?}\n  expected: {:?}",
            at + 1,
            actual.lines().nth(at),
            expected.lines().nth(at)
        );
    }
}
