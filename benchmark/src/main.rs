fn main() {
    std::process::exit(smapp_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
