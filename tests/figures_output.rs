//! Pins the simulator plane's model outputs: every figure's text must not
//! depend on the order the figures are rendered in, and the whole text must
//! equal the committed `figures_output.txt` byte for byte. A model change
//! that moves a figure regenerates that file
//! (`cargo run --release -p anaheim-bench --bin figures > figures_output.txt`)
//! and explains the delta.

use anaheim_bench::figures::FIGURES;

const COMMITTED: &str = include_str!("../figures_output.txt");

#[test]
fn figures_are_order_independent_and_match_the_committed_text() {
    let forward: Vec<String> = FIGURES.iter().map(|(_, render)| render()).collect();
    let mut reverse: Vec<String> = FIGURES.iter().rev().map(|(_, render)| render()).collect();
    reverse.reverse();
    for (((name, _), f), r) in FIGURES.iter().zip(&forward).zip(&reverse) {
        assert!(f == r, "{name} renders differently in reverse order");
    }

    let text = forward.concat();
    if let Some((i, (got, want))) = text
        .lines()
        .zip(COMMITTED.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "figures_output.txt line {} differs:\n  committed: {want}\n  rendered:  {got}",
            i + 1
        );
    }
    assert_eq!(text, COMMITTED, "figures_output.txt differs in length");
}
