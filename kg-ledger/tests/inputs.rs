use kg_ledger::inputs::Workload;

#[test]
fn pass_counts_are_odd_at_least_three_and_grow_with_the_flag() {
    let at = |seconds: f64| Workload::ALL.map(|w| w.passes(seconds));
    // The declared run length of `BENCHMARK.json`.
    assert_eq!(at(20.0), [5, 5, 3, 5]);
    assert_eq!(at(1.0), [3, 3, 3, 3]);
    for seconds in 1..=60 {
        let (now, longer) = (at(f64::from(seconds)), at(f64::from(seconds + 1)));
        assert!(now.iter().all(|n| n % 2 == 1 && *n >= 3), "{now:?}");
        assert!(now.iter().zip(&longer).all(|(a, b)| a <= b));
    }
}
