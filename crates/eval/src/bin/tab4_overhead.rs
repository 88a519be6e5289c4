//! Regenerates **Table IV** (predictor area/power overhead) from an
//! elaborated gate netlist of the predictor datapath.
//!
//! `tab4_overhead [PTAR_BITS] [--emit-verilog PATH]` — the Verilog
//! emission is the analogue of the paper's synthesizable model. It is
//! the one experiment binary that takes a PTAR width; `repro_all`
//! prints the table at the default 11 bits.

use lockstep_eval::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ptar_bits: u32 =
        args.first().filter(|a| !a.starts_with("--")).and_then(|s| s.parse().ok()).unwrap_or(11);
    let (_, report) = lockstep_eval::experiments::tab4::run(ptar_bits);
    // The file first: a closed standard output ends the program.
    if let Some(i) = args.iter().position(|a| a == "--emit-verilog") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| "ecp_predictor.v".to_owned());
        let verilog = lockstep_hwcost::Netlist::elaborate(ptar_bits).to_verilog();
        match std::fs::write(&path, verilog) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    cli::write_stdout(|out| writeln!(out, "{report}"));
}
