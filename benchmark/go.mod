module cafteams/benchmark

go 1.24

require cafteams v0.0.0

replace cafteams => ../
