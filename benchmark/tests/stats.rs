//! The statistics helpers, against hand-computed values and the values
//! Python's `statistics.quantiles(data, n=4)` gives.

use benchmark::stats::{fastest_sum, iqr_share, median, percentile, quartiles};

#[test]
fn fastest_sum_takes_each_segment_from_its_quietest_iteration() {
    // Three iterations of three segments; each iteration is disturbed in
    // a different segment, so no whole iteration is quiet.
    let iterations = vec![vec![10, 20, 90], vec![10, 80, 30], vec![70, 20, 30]];
    assert_eq!(fastest_sum(&iterations), 60.0);
    let whole: Vec<u64> = iterations.iter().map(|it| it.iter().sum()).collect();
    assert!(whole.iter().all(|&total| total > 60));
}

#[test]
fn fastest_sum_of_few_iterations() {
    assert_eq!(fastest_sum(&[vec![4, 2]]), 6.0);
    assert_eq!(fastest_sum(&[vec![4, 2], vec![3, 5]]), 5.0);
    assert!(fastest_sum(&[]).is_nan());
}

#[test]
#[should_panic(expected = "same segments")]
fn fastest_sum_needs_equal_segments() {
    fastest_sum(&[vec![1, 2], vec![1]]);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
    // Two points extrapolate, as Python does.
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    assert!(quartiles(&[])[1].is_nan());
}

#[test]
fn median_and_spread() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(iqr_share(&ten), 1.0);
    assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 99.0), 99.0);
    assert_eq!(percentile(&hundred, 100.0), 100.0);
    assert_eq!(percentile(&[5.0], 99.0), 5.0);
}
