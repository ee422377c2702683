module ptatin3d/bench

go 1.22

require ptatin3d v0.0.0

replace ptatin3d => ../
