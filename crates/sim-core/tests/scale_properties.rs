//! Property-style tests for the scaling substrate: the `Symbol` interner,
//! the slab-backed event queue's generational ids, and the Chrome-trace
//! validator on a >10 MB document. Cases are generated deterministically from
//! fixed `SimRng` seeds, mirroring `engine_properties.rs`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use rp_sim::{validate_chrome_json, Engine, SimRng, SimTime, SpanId, Symbol, SymbolTable, Trace};

/// Intern/resolve round-trips, re-interning is stable, and two tables fed
/// the same sequence assign identical ids (the bit-identical-replay
/// precondition).
#[test]
fn interner_round_trips_and_ids_are_stable_across_runs() {
    let mut rng = SimRng::new(0xFA17);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 200) as usize;
        let names: Vec<String> = (0..n)
            .map(|_| format!("label-{}", rng.uniform_u64(0, 40)))
            .collect();
        let mut t1 = SymbolTable::new();
        let mut t2 = SymbolTable::new();
        let syms1: Vec<Symbol> = names.iter().map(|s| t1.intern(s)).collect();
        let syms2: Vec<Symbol> = names.iter().map(|s| t2.intern(s)).collect();
        assert_eq!(syms1, syms2, "case {case}: identical runs diverged");
        for (s, &sym) in names.iter().zip(&syms1) {
            assert_eq!(t1.resolve(sym), s, "case {case}");
            assert_eq!(t1.intern(s), sym, "case {case}: re-intern moved an id");
            assert_eq!(t1.lookup(s), Some(sym), "case {case}");
        }
        // Distinct strings get distinct ids and vice versa.
        let distinct_names: BTreeSet<&str> = names.iter().map(String::as_str).collect();
        let distinct_syms: BTreeSet<Symbol> = syms1.iter().copied().collect();
        assert_eq!(
            distinct_names.len(),
            distinct_syms.len(),
            "case {case}: id/name cardinality mismatch"
        );
        // Ids are dense: table length = distinct labels + reserved "".
        assert_eq!(t1.len(), distinct_names.len() + 1, "case {case}");
    }
}

/// The same contract at the size of a 100k-unit traced run (two per-unit
/// symbols each): 200k distinct strings interleaved with repeats of a few
/// hot span names. Ids stay dense and in first-intern order whatever the
/// index's hash order, and two tables fed the same sequence agree.
#[test]
fn interner_keeps_first_intern_order_at_200k_symbols() {
    const DISTINCT: u64 = 200_000;
    const HOT: [&str; 4] = ["unit.run", "unit.scheduling", "unit.exec", "unit"];
    let mut rng = SimRng::new(0x200C);
    let mut seq: Vec<String> = Vec::new();
    for i in 0..DISTINCT {
        seq.push(format!("unit-{i}"));
        if rng.chance(0.5) {
            seq.push(HOT[rng.uniform_u64(0, HOT.len() as u64 - 1) as usize].to_string());
        }
    }
    let mut t1 = SymbolTable::new();
    let mut t2 = SymbolTable::new();
    let mut first_seen: Vec<&str> = vec![""];
    for s in &seq {
        let sym = t1.intern(s);
        if sym.index() == first_seen.len() {
            first_seen.push(s);
        }
        assert!(
            sym.index() < first_seen.len(),
            "id {} skipped ahead",
            sym.index()
        );
        assert_eq!(t2.intern(s), sym);
    }
    assert_eq!(t1.len(), DISTINCT as usize + HOT.len() + 1);
    assert_eq!(t1.names(), first_seen.as_slice());
    assert_eq!(t1.names(), t2.names());
    for (i, name) in t1.names().iter().enumerate() {
        let sym = t1.lookup(name).expect("interned name is found");
        assert_eq!(sym.index(), i);
        assert_eq!(t1.resolve(sym), name);
    }
    assert_eq!(t1.lookup("unit-200000"), None);
}

/// Slab slots are recycled between waves, but generational `EventId`s never
/// alias: stale cancels of long-gone events must not touch the live events
/// now occupying the same slots, and live cancels stay exact.
#[test]
fn slab_reuse_never_aliases_live_events() {
    let mut rng = SimRng::new(0x51AB);
    for case in 0..64 {
        let k1 = rng.uniform_u64(4, 64) as usize;
        let k2 = rng.uniform_u64(1, k1 as u64) as usize;
        let mut e = Engine::new(1);

        // Wave 1: k1 events in [0, 100), some cancelled while pending.
        let fired1 = Rc::new(RefCell::new(vec![false; k1]));
        let mut ids1 = Vec::new();
        for i in 0..k1 {
            let f = fired1.clone();
            ids1.push(e.schedule_at(SimTime(rng.uniform_u64(0, 99)), move |_| {
                f.borrow_mut()[i] = true;
            }));
        }
        let cancel1: Vec<bool> = (0..k1).map(|_| rng.chance(0.3)).collect();
        for (&id, &c) in ids1.iter().zip(&cancel1) {
            if c {
                e.cancel(id);
            }
        }
        e.run_until(SimTime(200));
        for (i, (&f, &c)) in fired1.borrow().iter().zip(&cancel1).enumerate() {
            assert_eq!(f, !c, "case {case} wave-1 event {i}");
        }
        let slab_high_water = e.slab_len();

        // Wave 2 fits entirely into wave 1's freed slots.
        let fired2 = Rc::new(RefCell::new(vec![false; k2]));
        let mut ids2 = Vec::new();
        for i in 0..k2 {
            let f = fired2.clone();
            ids2.push(e.schedule_at(SimTime(rng.uniform_u64(200, 299)), move |_| {
                f.borrow_mut()[i] = true;
            }));
        }
        // Generational ids: a recycled slot carries a fresh sequence, so no
        // wave-2 id ever equals a wave-1 id...
        for &id2 in &ids2 {
            assert!(
                !ids1.contains(&id2),
                "case {case}: EventId aliased across waves"
            );
        }
        // ...and cancelling every stale wave-1 id is a pure no-op for the
        // live events sharing those slots.
        for &id in &ids1 {
            e.cancel(id);
        }
        e.run();
        assert!(
            fired2.borrow().iter().all(|&f| f),
            "case {case}: a stale cancel killed a live event"
        );
        // The slab genuinely recycled: wave 2 allocated no new slots.
        assert_eq!(
            e.slab_len(),
            slab_high_water,
            "case {case}: free-list reuse did not kick in"
        );
    }
}

/// The validator accepts a >10 MB document and counts every span pair.
#[test]
fn validator_handles_10mb_trace() {
    let mut tr = Trace::enabled();
    let mut open = Vec::new();
    // ~90k spans with longish names: comfortably past 10 MB of JSON.
    for i in 0..90_000u64 {
        let span = tr.span_begin(
            SimTime(i),
            "unit",
            if i % 2 == 0 {
                "unit.compute.synthetic_scale_case"
            } else {
                "unit.stage_in.synthetic_scale_case"
            },
            SpanId::NONE,
        );
        open.push(span);
        if open.len() > 8 {
            let done = open.remove(0);
            tr.span_end(SimTime(i + 1), done);
        }
    }
    let t_end = SimTime(200_000);
    for span in open {
        tr.span_end(t_end, span);
    }
    let doc = tr.to_chrome_json();
    assert!(
        doc.len() > 10 * 1024 * 1024,
        "synthetic trace only {} bytes — not a >10 MB regression case",
        doc.len()
    );
    let stats = validate_chrome_json(&doc).expect("validation");
    assert_eq!(stats.begins, 90_000);
    assert_eq!(stats.ends, 90_000);
}
