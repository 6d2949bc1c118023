//! Reproduces **Table 2**: the optimizer catalog — name, category,
//! estimator, and what each optimizer matches — straight from the rows
//! of `gpa_core::TABLE2`.

fn main() {
    println!("Table 2 — GPU optimizers in GPA\n");
    println!("{:<45} {:<20} {:<22} first hint", "Optimizer", "Category", "Estimator");
    println!("{}", "-".repeat(132));
    for opt in &gpa_core::TABLE2 {
        println!(
            "{:<45} {:<20} {:<22} {}",
            opt.name,
            opt.category.to_string(),
            format!("{:?}", opt.estimator),
            opt.hints.first().copied().unwrap_or("")
        );
    }
}
