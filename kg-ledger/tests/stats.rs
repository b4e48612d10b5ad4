use kg_ledger::stats::{median, percentile, quartile_spread, quartiles};

#[test]
fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.95), 95.0);
    assert_eq!(percentile(&v, 0.50), 50.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.0);
    // 122 requests: the 95th percentile leaves six beyond it.
    let v: Vec<f64> = (1..=122).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.95), 116.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
    assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
    assert_eq!(quartile_spread(&v), 5.5 / 5.5);
}
