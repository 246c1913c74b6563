//! Regenerates every table and figure of the Anaheim evaluation.
//!
//! Usage: `figures [fig1|fig2a|fig2b|fig2c|fig3|fig4a|fig4b|fig8|fig9|fig10|table3|table5|all]`

use anaheim_bench::figures::FIGURES;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let mut matched = false;
    for (name, render) in FIGURES {
        if arg == "all" || arg == name {
            print!("{}", render());
            matched = true;
        }
    }
    if !matched {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| name).copied().collect();
        eprintln!(
            "figures: unknown figure {arg:?}; expected one of {} or all",
            names.join(", ")
        );
        std::process::exit(2);
    }
}
