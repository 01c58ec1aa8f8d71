//! The class-based conflict test and the one-pass head/tail partition
//! against the all-pairs and per-node dominator-walk implementations
//! they replaced, over the shared corpus.

use curare_lisp::ast::Func;
use curare_lisp::{Heap, Lowerer};
use curare_sexpr::parse_all;

use crate::access::{collect_accesses, AccessSummary};
use crate::canon::Canonicalizer;
use crate::canon_conflict::{self, conflicts_with_canon};
use crate::conflict::{self, conflicts_from_parts, ConflictReport};
use crate::corpus;
use crate::declare::DeclDb;
use crate::headtail::{dominates_reference, head_tail};
use crate::transfer::{transfer_functions, TransferSummary};

/// One analysed function of a corpus program.
struct Case {
    program: String,
    func: std::sync::Arc<Func>,
    accesses: AccessSummary,
    transfers: TransferSummary,
    /// Present when the program declares inverse accessors.
    canon: Option<Canonicalizer>,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (program, src) in corpus::programs() {
        let heap = Heap::new();
        let mut lw = Lowerer::new(&heap);
        let prog = lw.lower_program(&parse_all(&src).unwrap()).unwrap();
        let decls = DeclDb::from_program(&prog).unwrap();
        for func in prog.funcs {
            out.push(Case {
                program: program.clone(),
                accesses: collect_accesses(&func),
                transfers: transfer_functions(&func),
                canon: (!decls.inverse_pairs().is_empty())
                    .then(|| Canonicalizer::from_decls(&decls, &heap)),
                func,
            });
        }
    }
    out
}

fn canonical_reports(case: &Case, accesses: &AccessSummary) -> Option<ConflictReport> {
    let canon = case.canon.as_ref()?;
    Some(conflicts_with_canon(accesses, &case.transfers, canon))
}

#[test]
fn class_conflict_test_matches_all_pairs_on_the_corpus() {
    let cases = cases();
    assert!(cases.len() >= 70, "corpus shrank: {} functions", cases.len());
    for case in &cases {
        assert_eq!(
            conflicts_from_parts(&case.accesses, &case.transfers),
            conflict::all_pairs_reference(&case.accesses, &case.transfers),
            "{}: {}",
            case.program,
            case.func.name
        );
    }
}

#[test]
fn class_canonical_test_matches_all_pairs() {
    let cases = cases();
    let canonical: Vec<&Case> = cases.iter().filter(|c| c.canon.is_some()).collect();
    assert!(!canonical.is_empty(), "the corpus must exercise the canonical path");
    for case in canonical {
        let canon = case.canon.as_ref().unwrap();
        let report = conflicts_with_canon(&case.accesses, &case.transfers, canon);
        assert_eq!(
            report,
            canon_conflict::all_pairs_reference(&case.accesses, &case.transfers, canon),
            "{}: {}",
            case.program,
            case.func.name
        );
        if case.func.is_recursive() {
            // The backward write is only a conflict once succ.pred
            // cancels: the canonical path found something extra.
            assert_ne!(
                report,
                conflicts_from_parts(&case.accesses, &case.transfers),
                "{}",
                case.program
            );
        }
    }
}

#[test]
fn one_pass_head_tail_matches_dominator_walks_on_the_corpus() {
    for case in cases() {
        assert_eq!(
            head_tail(&case.func),
            dominates_reference(&case.func),
            "{}: {}",
            case.program,
            case.func.name
        );
    }
}

#[test]
fn walk_locked_has_many_records_but_few_classes() {
    let cases = cases();
    let walker = cases.iter().find(|c| c.program == "walk-locked").expect("in the corpus");
    assert!(walker.accesses.records.len() >= 200, "{}", walker.accesses.records.len());
    assert!(walker.accesses.classes().len() <= 8, "{}", walker.accesses.classes().len());
}

#[test]
fn duplicating_every_access_record_leaves_the_report_unchanged() {
    for case in cases() {
        let mut doubled = case.accesses.clone();
        doubled.records.extend(case.accesses.records.iter().cloned());
        assert_eq!(
            conflicts_from_parts(&doubled, &case.transfers),
            conflicts_from_parts(&case.accesses, &case.transfers),
            "{}: {}",
            case.program,
            case.func.name
        );
        assert_eq!(canonical_reports(&case, &doubled), canonical_reports(&case, &case.accesses));
    }
}
